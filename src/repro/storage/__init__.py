"""Storage substrate: databases and the pluggable datasource layer.

Besides the in-memory :class:`Database`, this package hosts the
multi-backend datasource registry of :mod:`repro.storage.datasources` — SQLite/CSV/JSONL sources resolved from
``@bind`` annotations, with selection/projection pushdown and per-source
LRU page caching.
"""

from .database import Database, Relation
from .datasources import (
    CsvDataSource,
    DataSource,
    DataSourceError,
    InMemoryDataSource,
    JsonlDataSource,
    Pushdown,
    RowPageCache,
    SourceStats,
    SQLiteDataSource,
    create_datasource,
    datasource_kinds,
    load_database_sqlite,
    publish_memory_relation,
    clear_memory_relations,
    save_database_sqlite,
)
from .csv_io import load_relation_csv, save_relation_csv

__all__ = [
    "Database",
    "Relation",
    "load_relation_csv",
    "save_relation_csv",
    "CsvDataSource",
    "DataSource",
    "DataSourceError",
    "InMemoryDataSource",
    "JsonlDataSource",
    "Pushdown",
    "RowPageCache",
    "SourceStats",
    "SQLiteDataSource",
    "create_datasource",
    "datasource_kinds",
    "load_database_sqlite",
    "publish_memory_relation",
    "clear_memory_relations",
    "save_database_sqlite",
]
