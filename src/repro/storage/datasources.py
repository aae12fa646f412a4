"""Pluggable external datasources behind ``@bind`` (Fig. 6, record managers).

The paper's architecture treats external data binding as a first-class
layer: *record managers* stream tuples from relational databases and files
into the reasoning pipeline, pushing selection and projection down to the
source where the backend supports it.  This module is that layer's storage
half — backend implementations plus the registry that ``@bind`` resolves
through:

* :class:`SQLiteDataSource` — relations stored as tables of a SQLite file;
  constant selections and literal comparisons compiled from the bound
  atom's plan conditions are executed as a SQL ``WHERE`` clause, and
  columns fixed by an equality are not transferred at all (projection
  pushdown — they are reconstructed client-side from the pushed constant);
* :class:`CsvDataSource` / :class:`JsonlDataSource` — file-backed sources;
  rows are filtered at the source boundary (Python-side, since the formats
  have no query capability), so the engine still never sees pruned tuples;
* :class:`InMemoryDataSource` — named in-memory relations registered with
  :func:`publish_memory_relation`, closing the loop with the default
  in-memory :class:`~repro.storage.database.Database` backend.

Every source keeps :class:`SourceStats` counters (scans, rows scanned vs.
relation size, cache traffic, rows written) and serves repeated scans from
a per-source :class:`RowPageCache` — an LRU cache of result pages keyed by
the pushdown that produced them, so a reasoner that is run twice (or an
executor that re-reads an input) does not re-hit the backend.  A scan
given a row converter (the record manager's row → fact step) yields and
caches the converted items, so the facts a load built are the cache's
one copy of the relation and a repeated load does not rebuild them.

Row scans are *lazy*: ``scan()`` is a generator and backends read rows
only as they are pulled, which is what lets the streaming pipeline avoid
reading relations its backward slice pruned.  The one deliberately eager
step is SQLite *schema validation*: resolving a ``@bind`` opens the file
for a ``PRAGMA`` peek so that missing tables, missing mapped columns and
arity mismatches fail fast at binding time rather than mid-chase.  Writing
is supported for every backend so that ``@output`` predicates bound to a
source are written back after reasoning.
"""

from __future__ import annotations

import csv
import json
import operator
import time
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs.trace import get_tracer
from ..testing.faults import fault_point
from .database import Database

if TYPE_CHECKING:
    import sqlite3


class DataSourceError(Exception):
    """Raised when a datasource cannot be resolved, read or written."""


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-exponential-backoff policy for transient scan failures.

    ``attempts`` counts *retries* after the first failure; a scan therefore
    makes at most ``attempts + 1`` tries before giving up with a
    :class:`DataSourceError` (chained to the last transient error).  Only
    the exception types in ``retry_on`` are considered transient — semantic
    errors (malformed rows, missing tables, arity mismatches) are raised as
    :class:`DataSourceError` immediately and never retried.  ``None`` (the
    default) means the source's own :meth:`DataSource.transient_errors`:
    ``OSError``, and for a SQLite source also ``sqlite3.OperationalError``
    (a locked or busy file).
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    retry_on: Optional[Tuple[type, ...]] = None

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(self.base_delay * (self.multiplier ** (attempt - 1)), self.max_delay)


#: The policy of a source created without an explicit one.
DEFAULT_RETRY_POLICY = RetryPolicy()


# ---------------------------------------------------------------------------
# Pushdown: the selection a source may apply before rows reach the engine
# ---------------------------------------------------------------------------

_PUSHDOWN_OPS: Dict[str, Callable[[object, object], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Operators a SQLite WHERE clause evaluates with the same semantics as the
#: engine (numeric comparisons and equality over primitive values).
_SQL_OPS = {"==": "=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


@dataclass(frozen=True)
class Pushdown:
    """A conjunction of per-column constraints pushed into a source scan.

    ``constraints`` is a tuple of ``(position, op, value)`` triples over the
    relation's columns; a row passes when **every** triple holds.  The
    reasoner only compiles a constraint into a predicate's pushdown when it
    appears on *every* occurrence of that predicate in the program
    (:func:`repro.engine.plan.compile_source_pushdowns`), so rows skipped at
    the source are provably unusable by any rule.
    """

    constraints: Tuple[Tuple[int, str, object], ...] = ()

    def __post_init__(self) -> None:
        for _pos, op, _value in self.constraints:
            if op not in _PUSHDOWN_OPS:
                raise DataSourceError(f"unsupported pushdown operator {op!r}")

    def is_empty(self) -> bool:
        return not self.constraints

    def key(self) -> Tuple[Tuple[int, str, object], ...]:
        """Hashable cache key identifying this pushdown."""
        return self.constraints

    def matches(self, row: Sequence[object]) -> bool:
        """Python-side evaluation, used by backends without native filters.

        Mirrors :meth:`repro.core.conditions.Comparison.holds`: a comparison
        that raises (mixed incomparable types) simply rejects the row.
        """
        for pos, op, value in self.constraints:
            if pos >= len(row):
                return False
            try:
                if not _PUSHDOWN_OPS[op](row[pos], value):
                    return False
            except TypeError:
                return False
        return True

    def describe(self) -> str:
        if not self.constraints:
            return "none"
        return " AND ".join(
            f"col{pos} {op} {value!r}" for pos, op, value in self.constraints
        )


def _sql_compatible(op: str, value: object) -> bool:
    """True when SQLite evaluates ``column op value`` like the engine does.

    Equality/inequality is safe for every primitive; ordering comparisons
    are only pushed for real numbers (SQLite's text collation need not match
    Python's, and booleans are stored as integers).
    """
    if isinstance(value, bool):
        return op in {"==", "!="}
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, str):
        return op in {"==", "!="}
    return False


# ---------------------------------------------------------------------------
# Per-source statistics and the LRU page cache
# ---------------------------------------------------------------------------


@dataclass
class SourceStats:
    """Counters of one datasource's traffic across a reasoner's lifetime."""

    scans: int = 0  # scan() calls, including cache-served ones
    cache_served_scans: int = 0
    rows_scanned: int = 0  # rows physically read from the backend
    rows_emitted: int = 0  # rows handed to the engine (post-pushdown)
    relation_rows: Optional[int] = None  # full relation size, when known
    rows_written: int = 0
    rows_skipped_nulls: int = 0  # writeback rows dropped for labelled nulls
    page_hits: int = 0
    page_misses: int = 0
    pages_evicted: int = 0
    retries: int = 0  # transient scan failures absorbed by the retry policy
    retry_giveups: int = 0  # scans that exhausted their retry budget

    def as_dict(self) -> Dict[str, object]:
        return {
            "scans": self.scans,
            "cache_served_scans": self.cache_served_scans,
            "rows_scanned": self.rows_scanned,
            "rows_emitted": self.rows_emitted,
            "relation_rows": self.relation_rows,
            "rows_written": self.rows_written,
            "rows_skipped_nulls": self.rows_skipped_nulls,
            "page_hits": self.page_hits,
            "page_misses": self.page_misses,
            "pages_evicted": self.pages_evicted,
            "retries": self.retries,
            "retry_giveups": self.retry_giveups,
        }


class CachedScan(NamedTuple):
    """One completed scan result held by a :class:`RowPageCache`."""

    pages: List[List[object]]
    #: True when the items are a row converter's output (see
    #: :meth:`DataSource.scan`), False for raw row tuples.
    converted: bool


class RowPageCache:
    """An LRU cache of completed scan results, stored in fixed-size pages.

    Entries are keyed by the pushdown that produced the rows; the budget is
    counted in *pages* across all entries, and whole entries are evicted
    least-recently-used (a partially cached scan result would be useless —
    consumers always need the full stream).  Results larger than the whole
    budget are not admitted at all.
    """

    def __init__(self, page_size: int = 1024, max_pages: int = 64) -> None:
        if page_size <= 0 or max_pages <= 0:
            raise ValueError("page_size and max_pages must be positive")
        self.page_size = page_size
        self.max_pages = max_pages
        self._entries: "OrderedDict[Tuple, CachedScan]" = OrderedDict()
        self._total_pages = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple) -> Optional[CachedScan]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(
        self, key: Tuple, rows: Sequence[object], stats: SourceStats, converted: bool = False
    ) -> bool:
        """Admit a completed scan result; returns False when it cannot fit."""
        pages = [
            list(rows[i : i + self.page_size])
            for i in range(0, len(rows), self.page_size)
        ] or [[]]
        if len(pages) > self.max_pages:
            return False
        if key in self._entries:
            self._total_pages -= len(self._entries.pop(key).pages)
        while self._total_pages + len(pages) > self.max_pages and self._entries:
            _evicted_key, evicted = self._entries.popitem(last=False)
            self._total_pages -= len(evicted.pages)
            stats.pages_evicted += len(evicted.pages)
        self._entries[key] = CachedScan(pages, converted)
        self._total_pages += len(pages)
        return True

    def invalidate(self) -> None:
        self._entries.clear()
        self._total_pages = 0


# ---------------------------------------------------------------------------
# The DataSource interface and its implementations
# ---------------------------------------------------------------------------


class DataSource:
    """One external relation: a named, scannable (and writable) tuple set.

    Subclasses implement :meth:`_scan_rows`, which must apply the given
    pushdown (natively when the backend can, via :meth:`Pushdown.matches`
    otherwise) and maintain ``stats.rows_scanned`` — the number of rows
    physically read from the backend.  The public :meth:`scan` adds the
    LRU page cache and the ``rows_emitted`` accounting on top.
    """

    kind = "abstract"

    def __init__(
        self,
        predicate: str,
        arity: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.predicate = predicate
        self.arity = arity
        self.stats = SourceStats()
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self._cache = RowPageCache()

    # -- reading ---------------------------------------------------------------
    def scan(
        self,
        pushdown: Optional[Pushdown] = None,
        convert: Optional[Callable[[Tuple[object, ...]], object]] = None,
    ) -> Iterator[object]:
        """Stream the relation's rows, restricted by ``pushdown``.

        Lazy: nothing is read until the first row is pulled.  A completed
        scan is admitted to the page cache; subsequent scans with the same
        pushdown are served from memory without touching the backend.

        ``convert``, when given, turns each row into the item the scan
        yields, and the cache keeps those items, not the rows: a later
        converting scan yields the very same objects.  A converted item
        gives its row back through ``values()`` (a :class:`Fact` does), so
        a scan without ``convert`` still yields raw tuples whichever kind
        of scan filled the cache.  A converting scan that finds raw rows
        cached is a miss: it reads the backend again and its converted
        items replace the entry.
        """
        if pushdown is not None and pushdown.is_empty():
            pushdown = None
        key = pushdown.key() if pushdown is not None else ()
        self.stats.scans += 1
        # The active tracer is looked up at first pull (the generator may be
        # created long before it is iterated) and the span is emitted when
        # the scan completes; abandoned scans (early-stop pulls) emit none.
        tracer = get_tracer()
        t_start = time.perf_counter() if tracer is not None else 0.0
        cached = self._cache.get(key)
        if cached is not None and (cached.converted or convert is None):
            self.stats.cache_served_scans += 1
            self.stats.page_hits += len(cached.pages)
            items = chain.from_iterable(cached.pages)
            if cached.converted and convert is None:
                items = (item.values() for item in items)
            for item in items:
                self.stats.rows_emitted += 1
                yield item
            if tracer is not None:
                self._emit_scan_span(
                    tracer,
                    t_start,
                    emitted=sum(len(page) for page in cached.pages),
                    scanned=0,
                    cache_served=True,
                    pushdown=pushdown,
                )
            return
        self.stats.page_misses += 1
        scanned_before = self.stats.rows_scanned
        emitted_before = self.stats.rows_emitted
        # Buffer for cache admission only while the result can still fit the
        # page budget; a scan larger than the whole cache is streamed through
        # without being retained (the memory bound stays the cache budget).
        budget = self._cache.page_size * self._cache.max_pages
        kept: Optional[List[object]] = []
        items = self._scan_resilient(pushdown)
        if convert is not None:
            items = map(convert, items)
        for item in items:
            self.stats.rows_emitted += 1
            if kept is not None:
                kept.append(item)
                if len(kept) > budget:
                    kept = None
            yield item
        if kept is not None:
            self._cache.put(key, kept, self.stats, converted=convert is not None)
        if tracer is not None:
            self._emit_scan_span(
                tracer,
                t_start,
                emitted=self.stats.rows_emitted - emitted_before,
                scanned=self.stats.rows_scanned - scanned_before,
                cache_served=False,
                pushdown=pushdown,
            )

    def _emit_scan_span(
        self,
        tracer,
        t_start: float,
        emitted: int,
        scanned: int,
        cache_served: bool,
        pushdown: Optional[Pushdown],
    ) -> None:
        """Record one completed scan as a ``source-scan`` span.

        Parented to the run root rather than the current phase span: lazy
        scan generators routinely outlive the phase that first pulled them,
        and root-parenting keeps the span-nesting invariant intact.
        """
        tracer.emit(
            "source-scan",
            f"scan:{self.predicate}",
            t_start,
            time.perf_counter(),
            parent=tracer.root,
            attrs={
                "predicate": self.predicate,
                "backend": self.kind,
                "cache_served": cache_served,
                "pushdown": pushdown.describe() if pushdown is not None else None,
            },
            counters={"rows_emitted": emitted, "rows_scanned": scanned},
        )

    def _scan_resilient(self, pushdown: Optional[Pushdown]) -> Iterator[Tuple[object, ...]]:
        """Backend scan wrapped in retry-with-exponential-backoff.

        Transient failures (``retry_policy.retry_on``, by default
        :meth:`transient_errors`) restart the backend scan; rows
        already handed to the consumer are skipped on the restarted pass —
        backend scans are deterministic, so resume-by-skip neither drops nor
        duplicates rows.  Exhausting the retry budget raises a
        :class:`DataSourceError` chained to the last transient error.
        """
        policy = self.retry_policy
        retry_on = self.transient_errors() if policy.retry_on is None else policy.retry_on
        emitted = 0
        attempt = 0
        while True:
            try:
                fault_point(
                    "datasource.scan", predicate=self.predicate, attempt=attempt
                )
                skip = emitted
                for row in self._scan_rows(pushdown):
                    if skip:
                        skip -= 1
                        continue
                    emitted += 1
                    yield row
                return
            except retry_on as exc:
                attempt += 1
                if attempt > policy.attempts:
                    self.stats.retry_giveups += 1
                    self._emit_retry_span(exc, attempt, "giveup")
                    raise DataSourceError(
                        f"{self.kind} source for {self.predicate!r} failed after "
                        f"{attempt} attempts: {exc}"
                    ) from exc
                self.stats.retries += 1
                self._emit_retry_span(exc, attempt, "retry")
                time.sleep(policy.delay_for(attempt))

    def transient_errors(self) -> Tuple[type, ...]:
        """The errors a scan retries when its policy names none."""
        return (OSError,)

    def _emit_retry_span(self, exc: BaseException, attempt: int, action: str) -> None:
        """Record one absorbed retry (or final giveup) as an error-tagged span."""
        tracer = get_tracer()
        if tracer is None:
            return
        now = time.perf_counter()
        tracer.emit(
            "source-retry",
            f"retry:{self.predicate}",
            now,
            now,
            parent=tracer.root,
            attrs={
                "predicate": self.predicate,
                "backend": self.kind,
                "attempt": attempt,
                "action": action,
            },
            status="error",
            error=f"{type(exc).__name__}: {exc}",
        )
        tracer.metrics.counter("source.retries").inc()

    def _scan_rows(self, pushdown: Optional[Pushdown]) -> Iterator[Tuple[object, ...]]:
        raise NotImplementedError

    def _check_arity(self, row: Sequence[object], where: str) -> None:
        if self.arity is not None and len(row) != self.arity:
            raise DataSourceError(
                f"arity mismatch for predicate {self.predicate!r}: {where} has "
                f"{len(row)} columns but the program uses arity {self.arity}"
            )

    # -- writing ---------------------------------------------------------------
    def write_rows(self, rows: Iterable[Sequence[object]]) -> int:
        """Replace the relation's content with ``rows``; returns rows written."""
        raise DataSourceError(
            f"{self.kind} source for {self.predicate!r} does not support writing"
        )

    def _note_written(self, count: int) -> int:
        self.stats.rows_written += count
        self._cache.invalidate()
        return count

    def describe(self) -> str:
        return f"{self.kind}:{self.predicate}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.predicate!r})"


class InMemoryDataSource(DataSource):
    """A plain list of tuples, the in-memory end of the registry.

    When the source was resolved from a relation registered with
    :func:`publish_memory_relation`, ``published_name`` links back to that
    registry entry so writebacks update the published relation too.
    """

    kind = "memory"

    def __init__(
        self,
        predicate: str,
        rows: Iterable[Sequence[object]],
        published_name: Optional[str] = None,
        **kwargs,
    ) -> None:
        super().__init__(predicate, **kwargs)
        self._rows = [tuple(row) for row in rows]
        self._published_name = published_name
        self.stats.relation_rows = len(self._rows)
        for row in self._rows:
            self._check_arity(row, "an in-memory row")

    def _scan_rows(self, pushdown: Optional[Pushdown]) -> Iterator[Tuple[object, ...]]:
        for row in self._rows:
            self.stats.rows_scanned += 1
            if pushdown is None or pushdown.matches(row):
                yield row

    def write_rows(self, rows: Iterable[Sequence[object]]) -> int:
        self._rows = [tuple(row) for row in rows]
        if self._published_name is not None:
            _MEMORY_RELATIONS[self._published_name] = list(self._rows)
        self.stats.relation_rows = len(self._rows)
        return self._note_written(len(self._rows))


class CsvDataSource(DataSource):
    """A CSV file, one tuple per line, with numeric/boolean type inference."""

    kind = "csv"

    def __init__(
        self,
        predicate: str,
        path: Union[str, Path],
        has_header: bool = False,
        delimiter: str = ",",
        **kwargs,
    ) -> None:
        super().__init__(predicate, **kwargs)
        self.path = Path(path)
        self.has_header = has_header
        self.delimiter = delimiter

    def _scan_rows(self, pushdown: Optional[Pushdown]) -> Iterator[Tuple[object, ...]]:
        from .csv_io import _coerce

        if not self.path.exists():
            raise DataSourceError(
                f"csv source for {self.predicate!r} not found: {self.path}"
            )
        raw = 0
        with self.path.open(newline="") as handle:
            reader = csv.reader(handle, delimiter=self.delimiter)
            for index, cells in enumerate(reader):
                if (index == 0 and self.has_header) or not cells:
                    continue
                row = tuple(_coerce(cell) for cell in cells)
                self._check_arity(row, f"row {index + 1} of {self.path}")
                raw += 1
                self.stats.rows_scanned += 1
                if pushdown is None or pushdown.matches(row):
                    yield row
        self.stats.relation_rows = raw

    def write_rows(self, rows: Iterable[Sequence[object]]) -> int:
        rows = [tuple(row) for row in rows]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w", newline="") as handle:
            writer = csv.writer(handle, delimiter=self.delimiter)
            for row in rows:
                writer.writerow(row)
        self.stats.relation_rows = len(rows)
        return self._note_written(len(rows))


class JsonlDataSource(DataSource):
    """A JSON-lines file: each line a JSON array (one tuple per line).

    Lines holding JSON objects are also accepted when the source knows its
    column names (from ``@mapping`` annotations): the object's values are
    read in mapped column order.
    """

    kind = "jsonl"

    def __init__(
        self,
        predicate: str,
        path: Union[str, Path],
        columns: Optional[Sequence[str]] = None,
        **kwargs,
    ) -> None:
        super().__init__(predicate, **kwargs)
        self.path = Path(path)
        self.columns = list(columns) if columns else None

    def _row_from_line(self, payload: object, line_no: int) -> Tuple[object, ...]:
        if isinstance(payload, list):
            return tuple(payload)
        if isinstance(payload, dict):
            if not self.columns:
                raise DataSourceError(
                    f"jsonl source for {self.predicate!r} holds objects; add "
                    f"@mapping annotations naming its columns"
                )
            try:
                return tuple(payload[column] for column in self.columns)
            except KeyError as exc:
                raise DataSourceError(
                    f"jsonl source for {self.predicate!r}: line {line_no} lacks "
                    f"mapped column {exc.args[0]!r}"
                ) from exc
        raise DataSourceError(
            f"jsonl source for {self.predicate!r}: line {line_no} is neither an "
            f"array nor an object"
        )

    def _scan_rows(self, pushdown: Optional[Pushdown]) -> Iterator[Tuple[object, ...]]:
        if not self.path.exists():
            raise DataSourceError(
                f"jsonl source for {self.predicate!r} not found: {self.path}"
            )
        raw = 0
        with self.path.open() as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataSourceError(
                        f"jsonl source for {self.predicate!r}: line {line_no} is "
                        f"not valid JSON ({exc.msg})"
                    ) from exc
                row = self._row_from_line(payload, line_no)
                self._check_arity(row, f"line {line_no} of {self.path}")
                raw += 1
                self.stats.rows_scanned += 1
                if pushdown is None or pushdown.matches(row):
                    yield row
        self.stats.relation_rows = raw

    def write_rows(self, rows: Iterable[Sequence[object]]) -> int:
        rows = [tuple(row) for row in rows]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w") as handle:
            for row in rows:
                if self.columns and len(self.columns) == len(row):
                    handle.write(json.dumps(dict(zip(self.columns, row))) + "\n")
                else:
                    handle.write(json.dumps(list(row)) + "\n")
        self.stats.relation_rows = len(rows)
        return self._note_written(len(rows))


class SQLiteDataSource(DataSource):
    """A table of a SQLite database file, scanned with native pushdown.

    Selection pushdown: constraints whose semantics SQLite shares with the
    engine (:func:`_sql_compatible`) become a parameterised ``WHERE``
    clause, so filtered rows never leave the database; the rest are applied
    Python-side after the fetch.  Projection pushdown: a column fixed by an
    equality constant is dropped from the ``SELECT`` list and reconstructed
    client-side, so its bytes are never transferred.
    """

    kind = "sqlite"

    def __init__(
        self,
        predicate: str,
        path: Union[str, Path],
        table: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
        create: bool = False,
        busy_timeout: float = 5.0,
        **kwargs,
    ) -> None:
        super().__init__(predicate, **kwargs)
        self.path = Path(path)
        self.table = table or predicate
        self._columns = list(columns) if columns else None
        #: Seconds SQLite blocks on a locked database before raising
        #: ``OperationalError`` — which the retry policy then backs off on,
        #: so short lock contention is absorbed instead of failing the scan.
        self.busy_timeout = busy_timeout
        if not create:
            self._validate_schema()

    def transient_errors(self) -> Tuple[type, ...]:
        """``OSError`` and ``sqlite3.OperationalError`` (a locked or busy
        file).  :mod:`sqlite3` is imported by the SQLite source and helpers
        only: ``import sqlite3`` costs about 1.5 MB of resident memory, which
        a program that binds no SQLite file should not pay."""
        import sqlite3

        return (OSError, sqlite3.OperationalError)

    # -- schema ----------------------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        if not self.path.exists():
            raise DataSourceError(
                f"sqlite source for {self.predicate!r} not found: {self.path}"
            )
        import sqlite3

        return sqlite3.connect(str(self.path), timeout=self.busy_timeout)

    def _table_columns(self, connection: sqlite3.Connection) -> List[str]:
        cursor = connection.execute(f'PRAGMA table_info("{self.table}")')
        columns = [row[1] for row in cursor.fetchall()]
        if not columns:
            raise DataSourceError(
                f"sqlite source for {self.predicate!r}: table {self.table!r} "
                f"does not exist in {self.path}"
            )
        return columns

    def _validate_schema(self) -> None:
        with self._connect() as connection:
            table_columns = self._table_columns(connection)
            if self._columns:
                missing = [c for c in self._columns if c not in table_columns]
                if missing:
                    raise DataSourceError(
                        f"sqlite source for {self.predicate!r}: table "
                        f"{self.table!r} lacks mapped column(s) "
                        f"{', '.join(repr(c) for c in missing)}"
                    )
            columns = self._columns or table_columns
            if self.arity is not None and len(columns) != self.arity:
                raise DataSourceError(
                    f"arity mismatch for predicate {self.predicate!r}: table "
                    f"{self.table!r} in {self.path} has {len(columns)} columns "
                    f"but the program uses arity {self.arity}"
                )
            self._columns = columns

    @property
    def columns(self) -> Optional[List[str]]:
        return self._columns

    # -- reading ---------------------------------------------------------------
    def _split_pushdown(
        self, pushdown: Optional[Pushdown]
    ) -> Tuple[List[Tuple[int, str, object]], Optional[Pushdown]]:
        if pushdown is None:
            return [], None
        native = [c for c in pushdown.constraints if _sql_compatible(c[1], c[2])]
        residual = tuple(c for c in pushdown.constraints if c not in native)
        return native, (Pushdown(residual) if residual else None)

    def _scan_rows(self, pushdown: Optional[Pushdown]) -> Iterator[Tuple[object, ...]]:
        native, residual = self._split_pushdown(pushdown)
        with self._connect() as connection:
            columns = self._columns or self._table_columns(connection)
            self._columns = columns
            if self.stats.relation_rows is None:
                self.stats.relation_rows = connection.execute(
                    f'SELECT COUNT(*) FROM "{self.table}"'
                ).fetchone()[0]
            # Projection pushdown: equality-fixed columns are reconstructed
            # client-side instead of being transferred.
            fixed = {
                pos: value for pos, op, value in native if op == "=="
            }
            selected = [i for i in range(len(columns)) if i not in fixed]
            select_list = (
                ", ".join(f'"{columns[i]}"' for i in selected) if selected else "1"
            )
            where_parts: List[str] = []
            params: List[object] = []
            for pos, op, value in native:
                if pos >= len(columns):
                    raise DataSourceError(
                        f"sqlite source for {self.predicate!r}: pushdown on "
                        f"column {pos} but table {self.table!r} has only "
                        f"{len(columns)} columns"
                    )
                if op == "!=":
                    # SQL three-valued logic would drop NULL-valued rows that
                    # Python's ``None != value`` keeps; match the engine.
                    where_parts.append(
                        f'("{columns[pos]}" != ? OR "{columns[pos]}" IS NULL)'
                    )
                else:
                    where_parts.append(f'"{columns[pos]}" {_SQL_OPS[op]} ?')
                params.append(int(value) if isinstance(value, bool) else value)
            sql = f'SELECT {select_list} FROM "{self.table}"'
            if where_parts:
                sql += " WHERE " + " AND ".join(where_parts)
            cursor = connection.execute(sql, params)
            for fetched in cursor:
                self.stats.rows_scanned += 1
                row_values: List[object] = [None] * len(columns)
                for out_pos, i in enumerate(selected):
                    row_values[i] = fetched[out_pos]
                for pos, value in fixed.items():
                    row_values[pos] = value
                row = tuple(row_values)
                if residual is None or residual.matches(row):
                    yield row

    # -- writing ---------------------------------------------------------------
    def write_rows(self, rows: Iterable[Sequence[object]]) -> int:
        rows = [tuple(row) for row in rows]
        arity = self.arity
        if arity is None:
            arity = len(rows[0]) if rows else len(self._columns or ())
        if not arity:
            raise DataSourceError(
                f"sqlite source for {self.predicate!r}: cannot infer the table "
                f"schema for an empty write; declare the predicate's arity"
            )
        columns = self._columns or [f"c{i}" for i in range(arity)]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        import sqlite3

        with sqlite3.connect(str(self.path)) as connection:
            column_ddl = ", ".join(f'"{c}"' for c in columns)
            connection.execute(f'DROP TABLE IF EXISTS "{self.table}"')
            connection.execute(f'CREATE TABLE "{self.table}" ({column_ddl})')
            placeholders = ", ".join("?" for _ in columns)
            prepared = [
                tuple(int(v) if isinstance(v, bool) else v for v in row)
                for row in rows
            ]
            connection.executemany(
                f'INSERT INTO "{self.table}" VALUES ({placeholders})', prepared
            )
        self._columns = columns
        self.stats.relation_rows = len(rows)
        return self._note_written(len(rows))


# ---------------------------------------------------------------------------
# The registry ``@bind`` resolves through
# ---------------------------------------------------------------------------

#: Named in-memory relations addressable as ``@bind("P", "memory", "name")``.
_MEMORY_RELATIONS: Dict[str, List[Tuple[object, ...]]] = {}


def publish_memory_relation(name: str, rows: Iterable[Sequence[object]]) -> None:
    """Register rows under ``name`` for ``@bind(..., "memory", name)``."""
    _MEMORY_RELATIONS[name] = [tuple(row) for row in rows]


def clear_memory_relations() -> None:
    """Drop every published in-memory relation (test isolation)."""
    _MEMORY_RELATIONS.clear()


def _make_memory(
    predicate: str, location: str, args: Sequence[object], options: Dict[str, object]
) -> DataSource:
    if location not in _MEMORY_RELATIONS:
        if options.get("create"):
            _MEMORY_RELATIONS[location] = []  # writeback target, starts empty
        else:
            known = ", ".join(sorted(_MEMORY_RELATIONS)) or "none published"
            raise DataSourceError(
                f"memory source {location!r} for predicate {predicate!r} is not "
                f"published (known relations: {known}); call "
                f"publish_memory_relation({location!r}, rows) first"
            )
    return InMemoryDataSource(
        predicate,
        _MEMORY_RELATIONS[location],
        published_name=location,
        arity=options.get("arity"),
    )


def _make_csv(
    predicate: str, location: str, args: Sequence[object], options: Dict[str, object]
) -> DataSource:
    path = _resolve_path(location, options)
    _require_file(path, "csv", predicate, options)
    delimiter = str(args[0]) if args else ","
    return CsvDataSource(
        predicate, path, delimiter=delimiter, arity=options.get("arity")
    )


def _make_jsonl(
    predicate: str, location: str, args: Sequence[object], options: Dict[str, object]
) -> DataSource:
    path = _resolve_path(location, options)
    _require_file(path, "jsonl", predicate, options)
    return JsonlDataSource(
        predicate,
        path,
        columns=options.get("columns"),
        arity=options.get("arity"),
    )


def _make_sqlite(
    predicate: str, location: str, args: Sequence[object], options: Dict[str, object]
) -> DataSource:
    path = _resolve_path(location, options)
    create = bool(options.get("create"))
    _require_file(path, "sqlite", predicate, options)
    table = str(args[0]) if args else None
    return SQLiteDataSource(
        predicate,
        path,
        table=table,
        columns=options.get("columns"),
        arity=options.get("arity"),
        create=create,
    )


def _resolve_path(location: str, options: Dict[str, object]) -> Path:
    base = options.get("base_path")
    path = Path(str(location))
    if base is not None and not path.is_absolute():
        path = Path(str(base)) / path
    return path


def _require_file(
    path: Path, kind: str, predicate: str, options: Dict[str, object]
) -> None:
    if options.get("create"):
        return  # writeback target: the file is created on first write
    if not path.exists():
        raise DataSourceError(
            f"{kind} source for predicate {predicate!r} does not exist: {path}"
        )


#: kind -> factory(predicate, location, extra_args, options) -> DataSource
DATASOURCE_KINDS: Dict[str, Callable[..., DataSource]] = {
    "memory": _make_memory,
    "csv": _make_csv,
    "jsonl": _make_jsonl,
    "sqlite": _make_sqlite,
}


def datasource_kinds() -> Tuple[str, ...]:
    return tuple(sorted(DATASOURCE_KINDS))


def create_datasource(
    kind: str,
    predicate: str,
    location: object,
    extra_args: Sequence[object] = (),
    *,
    base_path: Union[str, Path, None] = None,
    arity: Optional[int] = None,
    columns: Optional[Sequence[str]] = None,
    create: bool = False,
) -> DataSource:
    """Resolve one ``@bind`` into a :class:`DataSource` via the registry.

    ``create=True`` marks a writeback target (``@output`` predicates): the
    backing file need not exist yet and schema validation is deferred to the
    first write.
    """
    factory = DATASOURCE_KINDS.get(str(kind).lower())
    if factory is None:
        raise DataSourceError(
            f"unknown @bind source kind {kind!r} for predicate {predicate!r}; "
            f"known kinds: {', '.join(datasource_kinds())}"
        )
    options: Dict[str, object] = {
        "base_path": base_path,
        "arity": arity,
        "columns": list(columns) if columns else None,
        "create": create,
    }
    return factory(predicate, str(location), tuple(extra_args), options)


# ---------------------------------------------------------------------------
# SQLite import/export helpers (workload conversion, tests, docs)
# ---------------------------------------------------------------------------


def save_database_sqlite(
    database: Database,
    path: Union[str, Path],
    columns_by_relation: Optional[Dict[str, Sequence[str]]] = None,
) -> Path:
    """Export every relation of a database into tables of one SQLite file.

    Column names default to ``c0..cN-1``; booleans are stored as integers
    (SQLite has no boolean storage class).
    """
    import sqlite3

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with sqlite3.connect(str(path)) as connection:
        for name in database.relations():
            relation = database.relation(name)
            columns = list(
                (columns_by_relation or {}).get(name)
                or [f"c{i}" for i in range(relation.arity)]
            )
            if len(columns) != relation.arity:
                raise DataSourceError(
                    f"relation {name!r} has arity {relation.arity} but "
                    f"{len(columns)} column names were given"
                )
            column_ddl = ", ".join(f'"{c}"' for c in columns)
            connection.execute(f'DROP TABLE IF EXISTS "{name}"')
            connection.execute(f'CREATE TABLE "{name}" ({column_ddl})')
            placeholders = ", ".join("?" for _ in columns)
            connection.executemany(
                f'INSERT INTO "{name}" VALUES ({placeholders})',
                [
                    tuple(int(v) if isinstance(v, bool) else v for v in row)
                    for row in relation.tuples
                ],
            )
    return path


def load_database_sqlite(path: Union[str, Path]) -> Database:
    """Load every table of a SQLite file back into an in-memory database."""
    import sqlite3

    path = Path(path)
    if not path.exists():
        raise DataSourceError(f"sqlite database does not exist: {path}")
    database = Database()
    with sqlite3.connect(str(path)) as connection:
        tables = [
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
            )
        ]
        for table in tables:
            rows = connection.execute(f'SELECT * FROM "{table}"').fetchall()
            if rows:
                database.add_tuples(table, [tuple(row) for row in rows])
    return database
