"""Terms of the Vadalog / Warded Datalog± language.

The paper distinguishes three disjoint, countably infinite sets of symbols
(Section 2.1):

* **constants** (``C``) — ground values from the extensional database,
* **labelled nulls** (``N``) — fresh witnesses introduced by the chase to
  satisfy existential quantification,
* **variables** (``V``) — regular (universally quantified) rule variables.

This module provides immutable, hashable Python representations of each of
these symbol classes plus small utilities (fresh-name generators and
substitution application) used throughout the reasoner.

**One object per constant, per variable and per null.**  ``Constant(v)``
returns the one constant of ``v``, ``Variable(name)`` the one variable of
``name`` and ``Null(ident)`` the one labelled null of ``ident``, so all
three compare and hash by identity (``object.__eq__`` and
``object.__hash__``, in C): every join probe, dedup-map test and fact hash
over a terms tuple runs without a Python-level call.  Constants are
*typed* (Section 5, "Data Types"): a constant is its Python type together
with its value, so ``1``, ``1.0`` and ``True`` are three constants that
neither join nor deduplicate with each other, whatever ``==`` says of the
Python values.  Each type has its own table keyed by the value itself; a
tuple or frozenset is keyed by a type-tagged form of its elements, so
``Constant((1.0,)).value`` holds a float even after ``Constant((1,))`` was
made.  Pickling, ``copy.copy`` and ``copy.deepcopy`` return the same object.

The tables are bounded: a miss takes one lock and re-checks, and once the
tables have doubled since the last sweep, it sweeps them, dropping every
entry that no other object holds (``sys.getrefcount``).  A hit takes no
lock; a dictionary read or deletion is atomic under the GIL, so a term
somebody holds is never dropped, and one that nobody holds can be made
afresh without two live objects of one value ever existing.
"""

from __future__ import annotations

import itertools
import sys
import threading
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple, Union


class Term:
    """Abstract base class of all term kinds.

    Terms are immutable and hashable.  Every term is interned and compares
    by identity.  The concrete subclasses are :class:`Constant`,
    :class:`Variable` and :class:`Null`.
    """

    __slots__ = ()

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)

    @property
    def is_null(self) -> bool:
        return isinstance(self, Null)

    @property
    def is_ground(self) -> bool:
        """A term is ground if it is not a variable (constants and nulls)."""
        return not isinstance(self, Variable)


#: The intern tables: one per scalar value type (keyed by the value), one
#: for tuples and frozensets (keyed by :func:`_tagged`), one for variables
#: (keyed by name) and one for nulls (keyed by identifier).
_constants: Dict[type, Dict[Any, "Constant"]] = {}
_composites: Dict[Any, "Constant"] = {}
_variables: Dict[str, "Variable"] = {}
_nulls: Dict[int, "Null"] = {}
_lock = threading.Lock()
#: Entries in the tables (those the last sweep kept plus those added
#: since), and the count that starts the next sweep: twice what the last
#: sweep kept, and never below the floor.
_SWEEP_FLOOR = 4096
_entries = 0
_sweep_at = _SWEEP_FLOOR


def _tagged(value: Any) -> Any:
    """A composite's intern key: each element paired with its type, recursively."""
    if isinstance(value, tuple):
        return (value.__class__, tuple(map(_tagged, value)))
    if isinstance(value, frozenset):
        return (value.__class__, frozenset(map(_tagged, value)))
    return (value.__class__, value)


def _intern(table: Dict[Any, Term], key: Any, cls: type, slot, payload: Any) -> Term:
    """The miss path: under the lock, re-check, add, and sweep when due."""
    global _entries
    with _lock:
        found = table.get(key)
        if found is None:
            found = object.__new__(cls)
            slot.__set__(found, payload)
            table[key] = found
            _entries += 1
            if _entries >= _sweep_at:
                _sweep()
    return found


def _sweep() -> None:
    """Drop every interned term no other object holds; called under the lock.

    A term whose count shows a holder besides its table and this frame
    stays.  Any other is removed, and put back if a lock-free hit took it
    between the count and the removal.
    """
    global _entries, _sweep_at
    probe = object()
    unheld = sys.getrefcount(probe)  # what a term held by this frame alone reads
    live = 0
    for table in (_composites, _variables, _nulls, *_constants.values()):
        for key in list(table):
            term = table[key]
            if sys.getrefcount(term) <= unheld + 1:
                del table[key]
                if sys.getrefcount(term) <= unheld:
                    continue
                table[key] = term
            live += 1
    _entries = live
    _sweep_at = max(2 * live, _SWEEP_FLOOR)


class Constant(Term):
    """A ground constant wrapping an arbitrary hashable Python value.

    Vadalog terms are typed (Section 5 "Data Types"); we support the basic
    types by simply wrapping the corresponding Python value (``int``,
    ``float``, ``str``, ``bool``, ``date`` …) as well as frozen composites
    (tuples, frozensets) for the set/list data types.  There is one
    constant per type and value (see the module docstring), so constants
    compare and hash by identity.
    """

    __slots__ = ("value",)
    value: Any

    def __new__(cls, value: Any) -> "Constant":
        table = _constants.get(value.__class__)
        if table is not None:
            found = table.get(value)
            if found is not None:
                return found
            return _intern(table, value, Constant, _VALUE, value)
        if isinstance(value, (tuple, frozenset)):
            key = _tagged(value)
            found = _composites.get(key)
            if found is not None:
                return found
            return _intern(_composites, key, Constant, _VALUE, value)
        table = _constants.setdefault(value.__class__, {})
        return _intern(table, value, Constant, _VALUE, value)

    def __reduce__(self):
        # Pickling and copying rebuild through ``Constant(value)``: the same object.
        return Constant, (self.value,)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r}: constants are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, str) else str(self.value)


class Variable(Term):
    """A (universally or existentially quantified) rule variable, one object per name."""

    __slots__ = ("name",)
    name: str

    def __new__(cls, name: str) -> "Variable":
        found = _variables.get(name)
        if found is not None:
            return found
        return _intern(_variables, name, Variable, _NAME, name)

    def __reduce__(self):
        return Variable, (self.name,)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r}: variables are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Null(Term):
    """A labelled null ``ν_i`` introduced by the chase for an existential.

    Nulls carry an integer identifier, one object per identifier: two nulls
    are the same labelled null iff they are the same object.
    """

    __slots__ = ("ident",)
    ident: int

    def __new__(cls, ident: int) -> "Null":
        found = _nulls.get(ident)
        if found is not None:
            return found
        return _intern(_nulls, ident, Null, _IDENT, ident)

    def __reduce__(self):
        return Null, (self.ident,)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r}: nulls are immutable")

    __delattr__ = __setattr__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Null({self.ident})"

    def __str__(self) -> str:
        return f"_:n{self.ident}"


#: The slot descriptors the miss path fills in (``__setattr__`` refuses).
_VALUE = Constant.value
_NAME = Variable.name
_IDENT = Null.ident
#: The intern table a value goes to is its ``__class__``'s.
_class_of = attrgetter("__class__")


Value = Union[Constant, Null]
Substitution = Mapping[Variable, Term]


class NullFactory:
    """Thread-safe factory of fresh labelled nulls.

    The chase must never reuse a null identifier within one reasoning task;
    a factory instance is attached to each chase run so that identifiers are
    deterministic for a given execution (useful for reproducible tests).
    """

    def __init__(self, start: int = 0) -> None:
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def fresh(self) -> Null:
        """Return a labelled null with an identifier never handed out before."""
        with self._lock:
            return Null(next(self._counter))

    def fresh_many(self, n: int) -> Tuple[Null, ...]:
        """Return ``n`` distinct fresh nulls."""
        return tuple(self.fresh() for _ in range(n))


class VariableFactory:
    """Factory of fresh variables, used by program rewritings.

    Generated names use a reserved ``_V`` prefix so they can never clash with
    user-written variable names (the parser rejects identifiers starting with
    an underscore).
    """

    def __init__(self, prefix: str = "_V") -> None:
        self._prefix = prefix
        self._counter = itertools.count()

    def fresh(self) -> Variable:
        return Variable(f"{self._prefix}{next(self._counter)}")

    def fresh_many(self, n: int) -> Tuple[Variable, ...]:
        return tuple(self.fresh() for _ in range(n))


def make_term(value: Any) -> Term:
    """Coerce a raw Python value into a :class:`Term`.

    Existing terms are passed through unchanged; strings beginning with an
    upper-case letter are *not* treated as variables here (that convention
    belongs to the parser) — every non-term value becomes a :class:`Constant`.
    """
    if isinstance(value, Term):
        return value
    return Constant(value)


def constant_rows(rows: Sequence[Tuple[Any, ...]]) -> List[Tuple[Constant, ...]]:
    """``tuple(map(Constant, row))`` for each of a page of rows, one intern
    pass per column.

    A column whose values share one scalar type reads that type's table at
    C speed; only its values missing there, and the columns of mixed or
    composite type, go through :class:`Constant`.  Rows of unequal (or no)
    length convert one by one.
    """
    if len(set(map(len, rows))) != 1 or not rows[0]:
        return [tuple(map(Constant, row)) for row in rows]
    columns = []
    for column in zip(*rows):
        kinds = set(map(_class_of, column))
        table = _constants.get(kinds.pop()) if len(kinds) == 1 else None
        if table is None:
            columns.append(list(map(Constant, column)))
            continue
        found = list(map(table.get, column))
        if None in found:
            found = [
                term if term is not None else Constant(value)
                for term, value in zip(found, column)
            ]
        columns.append(found)
    return list(zip(*columns))


def constants_of(terms: Iterable[Term]) -> Tuple[Constant, ...]:
    """Return the constants occurring in ``terms`` in order of appearance."""
    return tuple(t for t in terms if isinstance(t, Constant))


def nulls_of(terms: Iterable[Term]) -> Tuple[Null, ...]:
    """Return the labelled nulls occurring in ``terms`` in order of appearance."""
    return tuple(t for t in terms if isinstance(t, Null))


def variables_of(terms: Iterable[Term]) -> Tuple[Variable, ...]:
    """Return the variables occurring in ``terms`` in order of appearance."""
    return tuple(t for t in terms if isinstance(t, Variable))


def apply_substitution(term: Term, substitution: Substitution) -> Term:
    """Apply a variable substitution to a single term.

    Variables not bound by the substitution are returned unchanged, as are
    constants and nulls.
    """
    if isinstance(term, Variable):
        return substitution.get(term, term)
    return term


def merge_substitutions(
    first: Substitution, second: Substitution
) -> Dict[Variable, Term] | None:
    """Merge two substitutions, returning ``None`` on conflicting bindings.

    Used by the rule-matching machinery when combining the bindings obtained
    from different body atoms of a join.
    """
    merged: Dict[Variable, Term] = dict(first)
    for variable, value in second.items():
        bound = merged.get(variable)
        if bound is None:
            merged[variable] = value
        elif bound != value:
            return None
    return merged
