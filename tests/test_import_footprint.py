"""``import repro`` loads only what every run uses.

``asyncio`` (with ``ssl``, ``socket`` and ``subprocess``) is imported by the
service's ``*_async`` entry points when they are called, and ``sqlite3`` by
the first data source or SQLite helper: a fresh interpreter that imports the
package has none of them, and the async entry points still answer as the
blocking ones do.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import json, sys
import repro

loaded = sorted(m for m in ("asyncio", "ssl", "socket", "sqlite3") if m in sys.modules)

import asyncio

service = repro.ReasoningService(
    '@output("Reach").\\n'
    'Reach(X, Y) :- Edge(X, Y).\\n'
    'Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).\\n',
    database={"Edge": [("a", "b"), ("b", "c"), ("c", "d")]},
)
blocking = sorted(service.query('Reach("a", Y)').tuples("Reach"))
awaited = sorted(asyncio.run(service.query_async('Reach("a", Y)')).tuples("Reach"))
asyncio.run(service.upsert_async({"Edge": [("d", "e")]}))
grown = sorted(service.query('Reach("a", Y)').tuples("Reach"))
print(json.dumps({"loaded": loaded, "blocking": blocking, "awaited": awaited, "grown": grown}))
"""


def test_import_loads_no_event_loop_and_no_sqlite():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["loaded"] == []
    assert report["blocking"] == [["a", "b"], ["a", "c"], ["a", "d"]]
    assert report["awaited"] == report["blocking"]
    assert report["grown"] == report["blocking"] + [["a", "e"]]


CSV_CHILD = """
import json, sys
from repro import VadalogReasoner

reasoner = VadalogReasoner(
    '@bind("Edge", "csv", "edges.csv").\\n'
    '@output("Reach").\\n'
    'Reach(X, Y) :- Edge(X, Y).\\n'
    'Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).\\n',
    base_path=sys.argv[1],
)
answers = sorted(reasoner.reason().ground_tuples("Reach"))
print(json.dumps({"sqlite3": "sqlite3" in sys.modules, "answers": answers}))
"""


def test_a_csv_bound_run_loads_no_sqlite(tmp_path):
    # Only a SQLite source retries ``sqlite3.OperationalError``; a CSV
    # source's default retry policy names ``OSError`` alone.
    (tmp_path / "edges.csv").write_text("a,b\nb,c\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    child = subprocess.run(
        [sys.executable, "-c", CSV_CHILD, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["answers"] == [["a", "b"], ["a", "c"], ["b", "c"]]
    assert report["sqlite3"] is False
