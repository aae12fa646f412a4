"""Record managers: adapters turning external sources into fact streams.

In the paper's architecture the initial data sources of the pipeline use
*record managers*, components that adapt external sources (CSV archives,
relational databases, APIs) and turn streaming input data into facts
(Section 4, "Execution model").  Besides the in-memory adapters for
databases and loose facts, :class:`DataSourceRecordManager` bridges
to the pluggable datasource layer of
:mod:`repro.storage.datasources` (SQLite/CSV/JSONL behind ``@bind``): it
streams lazily from the source's cursor — no *rows* are read until the
first fact is pulled, so sources the streaming driver prunes by the
backward slice never scan their backend (SQLite binds do get an eager schema-validation
peek at resolution time) — and carries the predicate's compiled
:class:`~repro.storage.datasources.Pushdown` into the scan.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from ..core.atoms import Fact
from ..core.terms import Constant
from ..storage.database import Database


class RecordManager:
    """Interface of a record manager: stream facts for one predicate."""

    predicate: str

    def stream(self) -> Iterator[Fact]:
        raise NotImplementedError

    def facts(self) -> List[Fact]:
        return list(self.stream())


class DataSourceRecordManager(RecordManager):
    """Streams facts from a pluggable :class:`~repro.storage.datasources.DataSource`.

    ``pushdown`` (when the reasoner compiled one for this predicate) is
    forwarded to ``source.scan`` so selection happens at the source —
    natively for SQLite, at the read boundary for CSV/JSONL.  ``stream`` is
    lazy: no rows are read until the first fact is pulled.

    Each stream hands the scan its own row → :class:`Fact` converter with a
    per-scan intern table: a value that repeats across rows (a key column,
    a join column) becomes one :class:`Constant` object.  The intern key is
    ``(type(value), value)``, so ``1``, ``1.0`` and ``True`` stay distinct
    Python values, exactly as the rows held them.  The source's page cache
    keeps the facts the converter built, so they are the one copy of the
    relation in memory, and a repeated stream (a second ``reason()``)
    yields those same facts without building a term.
    """

    def __init__(self, predicate: str, source, pushdown=None) -> None:
        self.predicate = predicate
        self.source = source
        self.pushdown = pushdown

    def stream(self) -> Iterator[Fact]:
        predicate = self.predicate
        interned: Dict[Tuple[type, object], Constant] = {}

        def convert(row: Tuple[object, ...]) -> Fact:
            terms = []
            for value in row:
                key = (type(value), value)
                constant = interned.get(key)
                if constant is None:
                    constant = interned[key] = Constant(value)
                terms.append(constant)
            return Fact.from_ground(predicate, tuple(terms))

        return self.source.scan(self.pushdown, convert)


class DatabaseRecordManager(RecordManager):
    """Serves facts for one relation of a :class:`~repro.storage.database.Database`."""

    def __init__(self, predicate: str, database: Database) -> None:
        self.predicate = predicate
        self._database = database

    def stream(self) -> Iterator[Fact]:
        yield from self._database.facts(self.predicate)


class FactsRecordManager(RecordManager):
    """Serves already-constructed :class:`Fact` objects for one predicate.

    The streaming driver reads every extensional predicate through a record
    manager; facts that arrive pre-built (programmatic databases, ``reason()``
    fact lists, facts embedded in the program text) go through this adapter.
    """

    def __init__(self, predicate: str, facts: Iterable[Fact]) -> None:
        self.predicate = predicate
        self._facts = list(facts)

    def __len__(self) -> int:
        return len(self._facts)

    def stream(self) -> Iterator[Fact]:
        return iter(self._facts)


class ChainedRecordManager(RecordManager):
    """Several sources of one predicate, streamed one after the other.

    A predicate can arrive through ``database=``, a ``@bind`` and facts in
    the program text at once.  Each manager is opened only when the one
    before it has run dry, and none before the first fact is pulled.
    """

    def __init__(self, predicate: str, managers: Iterable[RecordManager]) -> None:
        self.predicate = predicate
        self.managers = list(managers)

    def stream(self) -> Iterator[Fact]:
        for manager in self.managers:
            yield from manager.stream()


def chain_managers(*groups: Mapping[str, RecordManager]) -> Dict[str, RecordManager]:
    """One record manager per predicate out of several predicate→manager maps.

    A predicate present in more than one group streams them in group order
    through a :class:`ChainedRecordManager`; the others keep their manager.
    """
    found: Dict[str, List[RecordManager]] = {}
    for group in groups:
        for predicate, manager in group.items():
            found.setdefault(predicate, []).append(manager)
    return {
        predicate: managers[0]
        if len(managers) == 1
        else ChainedRecordManager(predicate, managers)
        for predicate, managers in found.items()
    }


def managers_for_database(database: Database) -> Dict[str, RecordManager]:
    """One record manager per relation of a database."""
    return {name: DatabaseRecordManager(name, database) for name in database.relations()}


def managers_for_facts(facts: Iterable[Fact]) -> Dict[str, RecordManager]:
    """Group loose facts by predicate into one record manager each."""
    grouped: Dict[str, List[Fact]] = {}
    for fact in facts:
        grouped.setdefault(fact.predicate, []).append(fact)
    return {
        predicate: FactsRecordManager(predicate, group)
        for predicate, group in grouped.items()
    }
