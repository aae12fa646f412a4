"""Tests for the multi-backend datasource layer (``@bind`` → SQLite/CSV/JSONL).

Covers the registry and its error surface (unknown backend, missing file,
arity mismatch — the resolution failures a user hits first), the pushdown
compiler's soundness rules, the LRU page cache, ``@output`` writeback, and
the end-to-end equivalence of the in-memory and SQLite backends on the
companies and DBpedia workloads across the materializing and streaming
executors.
"""

import sqlite3

import pytest

from repro.core.parser import parse_program
from repro.engine.annotations import (
    AnnotationError,
    collect_bindings,
)
from repro.engine.plan import compile_source_pushdowns
from repro.engine.reasoner import VadalogReasoner
from repro.storage.database import Database
from repro.storage.datasources import (
    CsvDataSource,
    DataSourceError,
    InMemoryDataSource,
    JsonlDataSource,
    Pushdown,
    RetryPolicy,
    RowPageCache,
    SQLiteDataSource,
    clear_memory_relations,
    create_datasource,
    datasource_kinds,
    load_database_sqlite,
    publish_memory_relation,
    save_database_sqlite,
)
from repro.workloads import control_scenario, majority_control_scenario, psc_scenario


def make_sqlite(path, table="Own", rows=(("a", "b", 0.6), ("b", "c", 0.4))):
    with sqlite3.connect(str(path)) as conn:
        conn.execute(f"CREATE TABLE {table} (c0, c1, c2)")
        conn.executemany(f"INSERT INTO {table} VALUES (?, ?, ?)", list(rows))
    return path


# ---------------------------------------------------------------------------
# Resolution errors (annotation → source)
# ---------------------------------------------------------------------------


class TestResolutionErrors:
    def test_unknown_backend_lists_known_kinds(self):
        program = parse_program('@bind("Own", "mongodb", "own.bson").\nP(X) :- Own(X).')
        with pytest.raises(AnnotationError) as err:
            collect_bindings(program)
        message = str(err.value)
        assert "unknown @bind source kind 'mongodb'" in message
        for kind in datasource_kinds():
            assert kind in message

    def test_missing_csv_file(self, tmp_path):
        program = parse_program(
            '@bind("Own", "csv", "nope.csv").\nP(X) :- Own(X).'
        )
        with pytest.raises(AnnotationError) as err:
            collect_bindings(program, base_path=str(tmp_path))
        assert "does not exist" in str(err.value)
        assert "nope.csv" in str(err.value)

    def test_missing_sqlite_file(self, tmp_path):
        program = parse_program(
            '@bind("Own", "sqlite", "nope.db").\nP(X) :- Own(X, Y, W).'
        )
        with pytest.raises(AnnotationError, match="does not exist"):
            collect_bindings(program, base_path=str(tmp_path))

    def test_missing_sqlite_table(self, tmp_path):
        make_sqlite(tmp_path / "data.db", table="Other")
        program = parse_program(
            '@bind("Own", "sqlite", "data.db").\nP(X) :- Own(X, Y, W).'
        )
        with pytest.raises(AnnotationError, match="table 'Own' does not exist"):
            collect_bindings(program, base_path=str(tmp_path))

    def test_sqlite_arity_mismatch(self, tmp_path):
        make_sqlite(tmp_path / "data.db")  # 3 columns
        program = parse_program(
            '@bind("Own", "sqlite", "data.db").\nP(X) :- Own(X, Y).'
        )
        with pytest.raises(AnnotationError) as err:
            collect_bindings(program, base_path=str(tmp_path))
        assert "arity mismatch" in str(err.value)
        assert "3 columns" in str(err.value) and "arity 2" in str(err.value)

    def test_csv_arity_mismatch_reports_row(self, tmp_path):
        (tmp_path / "own.csv").write_text("a,b\n")
        program = parse_program('@bind("Own", "csv", "own.csv").\nP(X) :- Own(X, Y, W).')
        reasoner = VadalogReasoner(program, base_path=str(tmp_path))
        with pytest.raises(AnnotationError, match="arity mismatch"):
            reasoner.reason()

    def test_unpublished_memory_relation(self):
        clear_memory_relations()
        program = parse_program('@bind("Own", "memory", "ghost").\nP(X) :- Own(X).')
        with pytest.raises(AnnotationError, match="not published"):
            collect_bindings(program)

    def test_sqlite_mapping_to_missing_column(self, tmp_path):
        make_sqlite(tmp_path / "data.db")
        program = parse_program(
            '@bind("Own", "sqlite", "data.db").\n'
            '@mapping("Own", 0, "owner_id").\n'
            "P(X) :- Own(X, Y, W)."
        )
        with pytest.raises(AnnotationError, match="lacks mapped column"):
            collect_bindings(program, base_path=str(tmp_path))

    def test_jsonl_objects_without_mapping(self, tmp_path):
        (tmp_path / "own.jsonl").write_text('{"a": 1, "b": 2}\n')
        source = JsonlDataSource("Own", tmp_path / "own.jsonl")
        with pytest.raises(DataSourceError, match="@mapping"):
            list(source.scan())

    def test_malformed_jsonl_line(self, tmp_path):
        (tmp_path / "own.jsonl").write_text("not json\n")
        source = JsonlDataSource("Own", tmp_path / "own.jsonl")
        with pytest.raises(DataSourceError, match="not valid JSON"):
            list(source.scan())


# ---------------------------------------------------------------------------
# Backends: scan, pushdown, writeback
# ---------------------------------------------------------------------------


class TestBackends:
    def test_memory_registry_roundtrip(self):
        clear_memory_relations()
        publish_memory_relation("own_rows", [("a", "b"), ("b", "c")])
        source = create_datasource("memory", "Own", "own_rows", arity=2)
        assert sorted(source.scan()) == [("a", "b"), ("b", "c")]
        assert source.stats.relation_rows == 2

    def test_csv_types_and_pushdown(self, tmp_path):
        (tmp_path / "own.csv").write_text("a,b,0.6\nb,c,0.4\n")
        source = CsvDataSource("Own", tmp_path / "own.csv")
        rows = list(source.scan(Pushdown(((2, ">", 0.5),))))
        assert rows == [("a", "b", 0.6)]
        # CSV has no native filter: all rows are read, fewer are emitted.
        assert source.stats.rows_scanned == 2
        assert source.stats.rows_emitted == 1

    def test_jsonl_roundtrip_with_columns(self, tmp_path):
        source = JsonlDataSource(
            "Own", tmp_path / "own.jsonl", columns=["src", "dst"]
        )
        source.write_rows([("a", "b"), ("b", "c")])
        assert sorted(source.scan()) == [("a", "b"), ("b", "c")]
        text = (tmp_path / "own.jsonl").read_text()
        assert '"src": "a"' in text  # objects use the mapped column names

    def test_sqlite_native_pushdown_scans_fewer_rows(self, tmp_path):
        make_sqlite(tmp_path / "data.db", rows=[("a", "b", 0.6), ("b", "c", 0.4), ("c", "d", 0.9)])
        source = SQLiteDataSource("Own", tmp_path / "data.db", table="Own")
        rows = list(source.scan(Pushdown(((2, ">", 0.5),))))
        assert sorted(rows) == [("a", "b", 0.6), ("c", "d", 0.9)]
        assert source.stats.rows_scanned == 2  # the 0.4 row never left SQLite
        assert source.stats.relation_rows == 3

    def test_sqlite_projection_reconstructs_equality_columns(self, tmp_path):
        make_sqlite(tmp_path / "data.db")
        source = SQLiteDataSource("Own", tmp_path / "data.db")
        rows = list(source.scan(Pushdown(((0, "==", "a"),))))
        assert rows == [("a", "b", 0.6)]  # col0 rebuilt from the constant

    def test_sqlite_string_ordering_falls_back_to_python(self, tmp_path):
        make_sqlite(tmp_path / "data.db")
        source = SQLiteDataSource("Own", tmp_path / "data.db")
        rows = list(source.scan(Pushdown(((1, ">", "b"),))))
        assert rows == [("b", "c", 0.4)]
        # Ordering on strings is not pushed natively: every row is fetched.
        assert source.stats.rows_scanned == 2

    def test_sqlite_writeback_roundtrip(self, tmp_path):
        source = SQLiteDataSource(
            "Control", tmp_path / "out.db", create=True, arity=2
        )
        source.write_rows([("a", "b"), ("a", "c")])
        again = SQLiteDataSource("Control", tmp_path / "out.db")
        assert sorted(again.scan()) == [("a", "b"), ("a", "c")]

    def test_save_and_load_database_sqlite(self, tmp_path):
        database = Database.from_dict(
            {"Own": [("a", "b", 0.6)], "Company": [("a",), ("b",)]}
        )
        save_database_sqlite(database, tmp_path / "db.sqlite")
        loaded = load_database_sqlite(tmp_path / "db.sqlite")
        assert sorted(loaded.relation("Company").tuples) == [("a",), ("b",)]
        assert loaded.relation("Own").tuples == [("a", "b", 0.6)]


class TestPageCache:
    def test_second_scan_served_from_cache(self, tmp_path):
        (tmp_path / "own.csv").write_text("a,b\nb,c\n")
        source = CsvDataSource("Own", tmp_path / "own.csv")
        assert list(source.scan()) == list(source.scan())
        assert source.stats.cache_served_scans == 1
        assert source.stats.rows_scanned == 2  # the file was read only once

    def test_cache_keyed_by_pushdown(self, tmp_path):
        (tmp_path / "own.csv").write_text("a,b\nb,c\n")
        source = CsvDataSource("Own", tmp_path / "own.csv")
        filtered = Pushdown(((0, "==", "a"),))
        assert list(source.scan(filtered)) == [("a", "b")]
        assert list(source.scan()) == [("a", "b"), ("b", "c")]
        assert list(source.scan(filtered)) == [("a", "b")]
        assert source.stats.cache_served_scans == 1

    def test_abandoned_scan_is_not_cached(self, tmp_path):
        (tmp_path / "own.csv").write_text("a,b\nb,c\n")
        source = CsvDataSource("Own", tmp_path / "own.csv")
        next(iter(source.scan()))  # pull one row, drop the cursor
        assert list(source.scan()) == [("a", "b"), ("b", "c")]
        assert source.stats.cache_served_scans == 0

    def test_residual_filtered_scan_is_cached_in_full_pages(self, tmp_path):
        # 70 000 rows fill more than the cache's 64 pages of 1 024; the string
        # ordering is filtered Python-side and one row in 1 000 passes it, so
        # every page fetched holds a match.
        rows = [(i, "z" if i % 1000 == 0 else "a", 0.5) for i in range(70_000)]
        source = SQLiteDataSource("Own", make_sqlite(tmp_path / "data.db", rows=rows))
        residual = Pushdown(((1, ">", "m"),))
        matches = rows[::1000]
        assert list(source.scan(residual)) == matches
        assert list(source.scan(residual)) == matches
        assert source.stats.cache_served_scans == 1
        assert source.stats.page_hits == 1  # one full page, not one per fetch
        assert source.stats.rows_scanned == 70_000

    def test_lru_eviction_counts_pages(self):
        cache = RowPageCache(page_size=2, max_pages=2)
        stats = InMemoryDataSource("P", []).stats
        cache.put(("a",), [[(1,), (2,)], [(3,)]], stats)  # 2 pages
        cache.put(("b",), [[(4,)]], stats)  # 1 page -> evicts ("a",)
        assert cache.get(("a",)) is None
        assert cache.get(("b",)) is not None
        assert stats.pages_evicted == 2

    def test_writeback_invalidates_cache(self, tmp_path):
        source = JsonlDataSource("P", tmp_path / "p.jsonl")
        source.write_rows([(1,)])
        assert list(source.scan()) == [(1,)]
        source.write_rows([(2,)])
        assert list(source.scan()) == [(2,)]

    def test_repeated_reason_serves_sources_from_cache(self, tmp_path):
        make_sqlite(tmp_path / "in.db")
        program = """
        @bind("Own", "sqlite", "in.db").
        @output("Control").
        Control(X, Y) :- Own(X, Y, W), W > 0.5.
        """
        reasoner = VadalogReasoner(program, base_path=str(tmp_path))
        first = reasoner.reason()
        second = reasoner.reason()
        assert first.ground_tuples("Control") == second.ground_tuples("Control")
        own = second.source_stats["Own"]
        assert own["cache_served_scans"] == 1   # second run never hit SQLite
        assert own["rows_scanned"] == 1         # lifetime counter: one real scan


class TestLoadedFactsCache:
    """The page cache keeps the facts a load built, not a copy of the rows."""

    PROGRAM = """
    @bind("Own", "sqlite", "in.db").
    @output("Control").
    Control(X, Y) :- Own(X, Y, W).
    """

    def test_second_reason_serves_the_first_runs_facts(self, tmp_path):
        make_sqlite(tmp_path / "in.db")
        reasoner = VadalogReasoner(self.PROGRAM, base_path=str(tmp_path))
        first = reasoner.reason()
        scanned = first.source_stats["Own"]["rows_scanned"]
        second = reasoner.reason()
        own = second.source_stats["Own"]
        assert own["cache_served_scans"] == 1
        assert own["rows_scanned"] == scanned == 2
        before, after = first.chase.facts("Own"), second.chase.facts("Own")
        assert len(after) == 2 and all(a is b for a, b in zip(before, after))
        # A raw scan of the same source still yields the rows themselves.
        source = reasoner._bindings.sources["Own"]
        assert list(source.scan()) == [("a", "b", 0.6), ("b", "c", 0.4)]
        assert source.stats.cache_served_scans == 2

    def test_load_after_a_raw_scan_replaces_the_raw_entry(self, tmp_path):
        make_sqlite(tmp_path / "in.db")
        reasoner = VadalogReasoner(self.PROGRAM, base_path=str(tmp_path))
        reasoner.reason()  # resolves the bindings
        source = reasoner._bindings.sources["Own"]
        source.write_rows([("x", "y", 0.9)])
        assert list(source.scan()) == [("x", "y", 0.9)]
        result = reasoner.reason()
        own = result.source_stats["Own"]
        assert own["cache_served_scans"] == 0
        assert own["rows_scanned"] == 4
        assert result.ground_tuples("Control") == {("x", "y")}
        assert list(source.scan()) == [("x", "y", 0.9)]
        assert source.stats.cache_served_scans == 1

    def test_writeback_to_the_source_reads_it_again(self, tmp_path):
        make_sqlite(tmp_path / "in.db")
        reasoner = VadalogReasoner(self.PROGRAM, base_path=str(tmp_path))
        reasoner.reason()
        reasoner._bindings.sources["Own"].write_rows([("x", "y", 0.9)])
        result = reasoner.reason()
        own = result.source_stats["Own"]
        assert own["cache_served_scans"] == 0
        assert own["rows_scanned"] == 3
        assert result.ground_tuples("Control") == {("x", "y")}

    def test_abandoned_streaming_scan_admits_nothing(self, tmp_path):
        make_sqlite(tmp_path / "in.db", rows=[(f"c{i}", f"c{i + 1}", 0.5) for i in range(40)])
        reasoner = VadalogReasoner(
            self.PROGRAM, executor="streaming", base_path=str(tmp_path)
        )
        lazy = reasoner.stream()
        assert lazy.first_answer() is not None
        source = reasoner._bindings.sources["Own"]
        assert len(source._cache) == 0
        reasoner.reason()
        assert source.stats.cache_served_scans == 0
        reasoner.reason()
        assert source.stats.cache_served_scans == 1


# ---------------------------------------------------------------------------
# Pushdown compilation soundness
# ---------------------------------------------------------------------------


class TestPushdownCompilation:
    def compile(self, text, predicates=("Own",)):
        return compile_source_pushdowns(parse_program(text), predicates)

    def test_constraint_on_every_occurrence_is_pushed(self):
        pushdowns = self.compile(
            """
            Control(X, Y) :- Own(X, Y, W), W > 0.5.
            Control(X, Z) :- Control(X, Y), Own(Y, Z, W), W > 0.5.
            """
        )
        assert pushdowns["Own"].constraints == ((2, ">", 0.5),)

    def test_unconstrained_occurrence_vetoes_pushdown(self):
        pushdowns = self.compile(
            """
            Control(X, Y) :- Own(X, Y, W), W > 0.5.
            Holds(X, Z) :- Own(X, Z, W).
            """
        )
        assert "Own" not in pushdowns

    def test_ground_terms_become_equalities(self):
        pushdowns = self.compile('P(X) :- Own(X, "acme", W), W >= 0.1.')
        assert set(pushdowns["Own"].constraints) == {(1, "==", "acme"), (2, ">=", 0.1)}

    def test_idb_and_output_predicates_excluded(self):
        pushdowns = self.compile(
            """
            @output("Own").
            Own(X, Y, W) :- Base(X, Y, W).
            P(X) :- Own(X, Y, W), W > 0.5.
            """
        )
        assert pushdowns == {}

    def test_constraint_body_vetoes_pushdown(self):
        pushdowns = self.compile(
            """
            P(X) :- Own(X, Y, W), W > 0.5.
            :- Own(X, X, W).
            """
        )
        assert "Own" not in pushdowns

    def test_aggregate_condition_not_pushed(self):
        # V constrains the aggregate result, not the Own column it reads.
        pushdowns = self.compile(
            "P(X, V) :- Own(X, Y, W), V = msum(W, <Y>), V > 0.5."
        )
        assert "Own" not in pushdowns

    def test_pushdown_matches_mirrors_engine_semantics(self):
        pushdown = Pushdown(((0, ">", 5),))
        assert pushdown.matches((7,))
        assert not pushdown.matches((3,))
        assert not pushdown.matches(("string",))  # TypeError -> reject


# ---------------------------------------------------------------------------
# End-to-end: workloads from SQLite on both executors
# ---------------------------------------------------------------------------


def run_scenario(scenario, executor):
    reasoner = VadalogReasoner(
        scenario.program.copy(), executor=executor, base_path=scenario.base_path
    )
    return reasoner.reason(database=scenario.database, outputs=scenario.outputs)


@pytest.mark.parametrize("executor", ["compiled", "streaming"])
class TestBackendEquivalence:
    def test_companies_control(self, tmp_path, executor):
        memory = run_scenario(control_scenario(30), executor)
        sqlite_run = run_scenario(
            control_scenario(30, backend="sqlite", data_dir=tmp_path), executor
        )
        assert memory.ground_tuples("Control") == sqlite_run.ground_tuples("Control")
        assert memory.answers.count("Control") == sqlite_run.answers.count("Control")

    def test_dbpedia_psc(self, tmp_path, executor):
        memory = run_scenario(psc_scenario(30, 20), executor)
        sqlite_run = run_scenario(
            psc_scenario(30, 20, backend="sqlite", data_dir=tmp_path), executor
        )
        assert memory.ground_tuples("PSC") == sqlite_run.ground_tuples("PSC")

    def test_majority_control_pushdown(self, tmp_path, executor):
        memory = run_scenario(majority_control_scenario(30), executor)
        sqlite_run = run_scenario(
            majority_control_scenario(30, backend="sqlite", data_dir=tmp_path),
            executor,
        )
        assert memory.ground_tuples("Control") == sqlite_run.ground_tuples("Control")
        own = sqlite_run.source_stats["Own"]
        assert own["pushdown"] == "col2 > 0.5"
        assert own["rows_scanned"] < own["relation_rows"]

    def test_requested_bound_predicate_disables_pushdown(self, tmp_path, executor):
        # Asking for Own itself must serve the full relation even though the
        # program's rules would allow a W > 0.5 pushdown.
        memory_scenario = majority_control_scenario(20)
        expected = VadalogReasoner(
            memory_scenario.program.copy(), executor=executor
        ).reason(database=memory_scenario.database, outputs=["Own"])
        scenario = majority_control_scenario(20, backend="sqlite", data_dir=tmp_path)
        result = VadalogReasoner(
            scenario.program.copy(), executor=executor, base_path=scenario.base_path
        ).reason(database=scenario.database, outputs=["Own"])
        assert result.ground_tuples("Own") == expected.ground_tuples("Own")
        assert len(result.ground_tuples("Own")) > 10  # the full relation
        assert result.source_stats["Own"]["pushdown"] is None

    def test_streaming_prunes_unused_source(self, tmp_path, executor):
        scenario = control_scenario(20, backend="sqlite", data_dir=tmp_path)
        result = run_scenario(scenario, executor)
        company = result.source_stats["Company"]
        if executor == "streaming":
            # Company feeds no rule in the slice: its table is never read.
            assert company["rows_scanned"] == 0 and company["scans"] == 0
        else:
            assert company["rows_scanned"] > 0


class TestWriteback:
    def test_output_bind_writes_certain_answers(self, tmp_path):
        make_sqlite(tmp_path / "in.db")
        program = """
        @bind("Own", "sqlite", "in.db").
        @bind("Control", "csv", "control.csv").
        @output("Control").
        Control(X, Y) :- Own(X, Y, W), W > 0.5.
        """
        result = VadalogReasoner(program, base_path=str(tmp_path)).reason()
        assert (tmp_path / "control.csv").read_text().strip() == "a,b"
        assert result.source_stats["Control"]["rows_written"] == 1
        assert result.source_stats["Control"]["direction"] == "output"

    def test_null_answers_are_skipped_and_counted(self, tmp_path):
        program = """
        @bind("WorksIn", "csv", "worksin.csv").
        @output("WorksIn").
        WorksIn(E, D) :- Employee(E).
        """
        result = VadalogReasoner(program, base_path=str(tmp_path)).reason(
            database={"Employee": [("e1",)]}
        )
        assert (tmp_path / "worksin.csv").read_text() == ""
        assert result.source_stats["WorksIn"]["rows_skipped_nulls"] == 1

    def test_unrequested_output_bind_is_not_wiped(self, tmp_path):
        make_sqlite(tmp_path / "in.db")
        program = """
        @bind("Own", "sqlite", "in.db").
        @bind("Control", "csv", "control.csv").
        @output("Control").
        @output("Strong").
        Control(X, Y) :- Own(X, Y, W), W > 0.5.
        Strong(X, Y) :- Own(X, Y, W), W > 0.3.
        """
        reasoner = VadalogReasoner(program, base_path=str(tmp_path))
        reasoner.reason()
        assert (tmp_path / "control.csv").read_text().strip() == "a,b"
        # A later run asking only for Strong must not truncate control.csv.
        reasoner.reason(outputs=["Strong"])
        assert (tmp_path / "control.csv").read_text().strip() == "a,b"

    def test_memory_writeback_updates_published_relation(self):
        clear_memory_relations()
        publish_memory_relation("q_rows", [("a",), ("b",)])
        publish_memory_relation("p_rows", [])
        program = """
        @bind("Q", "memory", "q_rows").
        @bind("P", "memory", "p_rows").
        @output("P").
        P(X) :- Q(X).
        """
        from repro.storage.datasources import _MEMORY_RELATIONS

        result = VadalogReasoner(program).reason()
        assert result.source_stats["P"]["rows_written"] == 2
        assert sorted(_MEMORY_RELATIONS["p_rows"]) == [("a",), ("b",)]

    def test_streaming_lazy_run_writes_back_on_complete(self, tmp_path):
        make_sqlite(tmp_path / "in.db")
        program = """
        @bind("Own", "sqlite", "in.db").
        @bind("Control", "jsonl", "control.jsonl").
        @output("Control").
        Control(X, Y) :- Own(X, Y, W), W > 0.5.
        """
        reasoner = VadalogReasoner(
            program, executor="streaming", base_path=str(tmp_path)
        )
        lazy = reasoner.stream()
        assert not (tmp_path / "control.jsonl").exists()
        lazy.complete()
        assert (tmp_path / "control.jsonl").read_text().strip() == '["a", "b"]'


def writable_source(kind, directory, name, arity=None):
    """A fresh, empty writeback target of ``kind`` named ``name``."""
    if kind == "memory":
        return InMemoryDataSource("P", [], arity=arity)
    if kind == "csv":
        return CsvDataSource("P", directory / f"{name}.csv", arity=arity)
    if kind == "jsonl":
        return JsonlDataSource("P", directory / f"{name}.jsonl", arity=arity)
    return SQLiteDataSource("P", directory / f"{name}.db", create=True, arity=arity)


WRITABLE_KINDS = ("memory", "csv", "jsonl", "sqlite")


class TestStreamedWriteback:
    """``write_rows`` consumes a one-shot iterator as it writes."""

    ROWS = [("a", 1), ("b", 2.5), ("c", True), ("a", 1)]

    @pytest.mark.parametrize("kind", WRITABLE_KINDS)
    def test_generator_writes_what_a_list_writes(self, tmp_path, kind):
        listed = writable_source(kind, tmp_path, "listed")
        streamed = writable_source(kind, tmp_path, "streamed")
        assert listed.write_rows(list(self.ROWS)) == 4
        assert streamed.write_rows(row for row in self.ROWS) == 4
        assert list(streamed.scan()) == list(listed.scan())
        for stats in (listed.stats, streamed.stats):
            assert (stats.rows_written, stats.relation_rows) == (4, 4)

    @pytest.mark.parametrize("kind", WRITABLE_KINDS)
    def test_empty_generator_writes_an_empty_relation(self, tmp_path, kind):
        listed = writable_source(kind, tmp_path, "listed", arity=2)
        streamed = writable_source(kind, tmp_path, "streamed", arity=2)
        assert listed.write_rows([]) == streamed.write_rows(iter(())) == 0
        assert list(listed.scan()) == list(streamed.scan()) == []
        for stats in (listed.stats, streamed.stats):
            assert (stats.rows_written, stats.relation_rows) == (0, 0)

    @pytest.mark.parametrize("rows", [[], iter(())], ids=["list", "generator"])
    def test_empty_sqlite_write_without_arity_still_raises(self, tmp_path, rows):
        source = writable_source("sqlite", tmp_path, "out")
        with pytest.raises(DataSourceError, match="cannot infer the table schema"):
            source.write_rows(rows)
        assert source.stats.rows_written == 0

    @pytest.mark.parametrize("kind", ["csv", "jsonl", "sqlite"])
    def test_null_answers_skipped_among_certain_ones(self, tmp_path, kind):
        location = {"csv": "out.csv", "jsonl": "out.jsonl", "sqlite": "out.db"}[kind]
        if kind == "sqlite":
            with sqlite3.connect(str(tmp_path / location)) as conn:
                conn.execute('CREATE TABLE "WorksIn" (c0, c1)')
        program = f"""
        @bind("WorksIn", "{kind}", "{location}").
        @output("WorksIn").
        WorksIn(E, D) :- Employee(E).
        WorksIn(B, "hq") :- Boss(B).
        """
        result = VadalogReasoner(program, base_path=str(tmp_path)).reason(
            database={"Employee": [("e1",), ("e2",)], "Boss": [("b1",)]}
        )
        stats = result.source_stats["WorksIn"]
        assert (stats["rows_written"], stats["rows_skipped_nulls"]) == (1, 2)
        backend = {"csv": CsvDataSource, "jsonl": JsonlDataSource, "sqlite": SQLiteDataSource}
        assert list(backend[kind]("WorksIn", tmp_path / location).scan()) == [("b1", "hq")]


# ---------------------------------------------------------------------------
# Error paths and the retry policy (robustness layer)
# ---------------------------------------------------------------------------


class FlakyCsvDataSource(CsvDataSource):
    """A CSV source that raises a transient OSError mid-scan, once."""

    def __init__(self, *args, fail_after_rows=2, failures=1, **kwargs):
        super().__init__(*args, **kwargs)
        self.fail_after_rows = fail_after_rows
        self.failures_left = failures

    def _scan_rows(self, pushdown):
        count = 0
        for row in super()._scan_rows(pushdown):
            yield row
            count += 1
            if count == self.fail_after_rows and self.failures_left:
                self.failures_left -= 1
                raise OSError("simulated transient I/O failure")


class TestRetryPolicy:
    def fast_policy(self, attempts=3):
        return RetryPolicy(attempts=attempts, base_delay=0.001)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.05, multiplier=2.0, max_delay=0.15)
        assert policy.delay_for(1) == pytest.approx(0.05)
        assert policy.delay_for(2) == pytest.approx(0.10)
        assert policy.delay_for(3) == pytest.approx(0.15)  # capped
        assert policy.delay_for(10) == pytest.approx(0.15)

    def test_transient_failure_mid_scan_resumes_without_duplicates(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("".join(f"{i},{i + 1}\n" for i in range(10)))
        source = FlakyCsvDataSource(
            "E", path, fail_after_rows=4, retry_policy=self.fast_policy()
        )
        rows = list(source.scan())
        assert rows == [(i, i + 1) for i in range(10)]
        assert source.stats.retries == 1
        assert source.stats.retry_giveups == 0

    def test_failure_past_a_page_resumes_at_the_next_page(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("".join(f"{i},{i + 1}\n" for i in range(2500)))
        source = FlakyCsvDataSource(
            "E", path, fail_after_rows=1500, retry_policy=self.fast_policy()
        )
        rows = source.scan()
        assert next(rows) == (0, 1)  # the first page of 1 024 rows is handed out
        assert list(rows) == [(i, i + 1) for i in range(1, 2500)]
        assert source.stats.retries == 1
        # The restarted pass reads the handed-out page again and counts it.
        assert source.stats.rows_scanned == 1500 + 2500
        assert source.stats.rows_emitted == 2500
        # The resumed pass is cut into full pages again: 2 500 rows are 3.
        assert list(source.scan()) == [(i, i + 1) for i in range(2500)]
        assert source.stats.page_hits == 3

    def test_retry_exhaustion_raises_datasource_error(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1,2\n")
        source = FlakyCsvDataSource(
            "E",
            path,
            fail_after_rows=1,
            failures=99,
            retry_policy=self.fast_policy(attempts=2),
        )
        with pytest.raises(DataSourceError) as err:
            list(source.scan())
        assert "failed after 3 attempts" in str(err.value)
        assert isinstance(err.value.__cause__, OSError)
        assert source.stats.retries == 2
        assert source.stats.retry_giveups == 1

    def test_file_vanishing_between_retries_is_not_retried(self, tmp_path):
        # First attempt dies with a transient OSError; before the retry the
        # file disappears.  The retry's missing-file DataSourceError is
        # semantic, not transient: it propagates immediately.
        path = tmp_path / "edges.csv"
        path.write_text("1,2\n2,3\n")

        class VanishingCsv(FlakyCsvDataSource):
            def _scan_rows(self, pushdown):
                if self.failures_left:
                    self.failures_left = 0
                    yield (1, 2)
                    path.unlink()
                    raise OSError("disk detached")
                yield from super()._scan_rows(pushdown)

        source = VanishingCsv("E", path, retry_policy=self.fast_policy())
        with pytest.raises(DataSourceError, match="not found"):
            list(source.scan())
        assert source.stats.retries == 1
        assert source.stats.retry_giveups == 0

    def test_malformed_csv_row_is_not_retried(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nc\n")  # second row has the wrong arity
        source = CsvDataSource("P", path, arity=2, retry_policy=self.fast_policy())
        with pytest.raises(DataSourceError, match="arity mismatch"):
            list(source.scan())
        assert source.stats.retries == 0

    def test_malformed_jsonl_line_is_not_retried(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('["a", "b"]\n{not json\n')
        source = JsonlDataSource("P", path, retry_policy=self.fast_policy())
        with pytest.raises(DataSourceError, match="not valid JSON"):
            list(source.scan())
        assert source.stats.retries == 0

    def test_missing_file_at_scan_start_is_not_retried(self, tmp_path):
        source = CsvDataSource(
            "P", tmp_path / "nope.csv", retry_policy=self.fast_policy()
        )
        with pytest.raises(DataSourceError, match="not found"):
            list(source.scan())
        assert source.stats.retries == 0
        assert source.stats.retry_giveups == 0

    def test_sqlite_lock_contention_is_absorbed(self, tmp_path):
        import threading

        path = make_sqlite(tmp_path / "locked.db")
        source = SQLiteDataSource(
            "Own",
            path,
            busy_timeout=0.05,
            retry_policy=RetryPolicy(attempts=10, base_delay=0.05),
        )
        blocker = sqlite3.connect(str(path), check_same_thread=False)
        blocker.execute("BEGIN EXCLUSIVE")
        release = threading.Timer(0.4, blocker.commit)
        release.start()
        try:
            rows = list(source.scan())
        finally:
            release.cancel()
            blocker.close()
        assert sorted(rows) == [("a", "b", 0.6), ("b", "c", 0.4)]
        assert source.stats.retries >= 1
        assert source.stats.retry_giveups == 0

    def test_sqlite_lock_exhaustion_raises_datasource_error(self, tmp_path):
        path = make_sqlite(tmp_path / "locked.db")
        source = SQLiteDataSource(
            "Own",
            path,
            busy_timeout=0.01,
            retry_policy=RetryPolicy(attempts=2, base_delay=0.001),
        )
        blocker = sqlite3.connect(str(path))
        blocker.execute("BEGIN EXCLUSIVE")
        try:
            with pytest.raises(DataSourceError, match="failed after 3 attempts"):
                list(source.scan())
        finally:
            blocker.rollback()
            blocker.close()
        assert source.stats.retry_giveups == 1

    def test_retry_counters_surface_in_stats_dict(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("1,2\n")
        source = FlakyCsvDataSource(
            "E", path, fail_after_rows=1, retry_policy=self.fast_policy()
        )
        list(source.scan())
        stats = source.stats.as_dict()
        assert stats["retries"] == 1
        assert stats["retry_giveups"] == 0
