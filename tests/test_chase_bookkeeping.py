"""Per-fact bookkeeping of the chase costs only what the program uses.

* ground facts never reach the isomorphism machinery: the store's
  duplicate check decides them, so the termination structures ``G``/``S``
  hold null-bearing facts only, and answer extraction keys ground facts by
  themselves;
* chase nodes are slotted and never refer to themselves, so a dropped chase
  graph is freed by reference counting;
* a datasource scan builds one :class:`Constant` object per type and value
  (constants are interned globally, see :mod:`repro.core.terms`);
* the fact store builds its active domain only when a ``Dom`` guard (or a
  caller) first asks for it.

Each test pins behaviour with counts rather than timings.
"""

import gc
import json
from collections import Counter
import os
import sqlite3
import subprocess
import sys

import pytest

import repro.core.isomorphism as isomorphism_module
import repro.core.termination as termination_module
from repro.core.atoms import fact
from repro.core.chase import run_chase
from repro.core.forests import ChaseNode
from repro.core.parser import parse_program
from repro.core.termination import WardedTerminationStrategy
from repro.engine.incremental import ResidentReasoner
from repro.engine.reasoner import VadalogReasoner
from repro.engine.record_managers import DataSourceRecordManager
from repro.storage.datasources import CsvDataSource, JsonlDataSource, SQLiteDataSource
from repro.workloads import control_scenario


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestGroundFactsSkipTermination:
    def test_ground_only_run_computes_no_isomorphism_key(self, monkeypatch, tmp_path):
        # The control.sqlite shape: msum company control bound from SQLite.
        scenario = control_scenario(2000, backend="sqlite", data_dir=tmp_path)
        keys = _count_calls(monkeypatch, isomorphism_module, "isomorphism_key")
        keys += _count_calls(monkeypatch, termination_module, "isomorphism_key")
        admits = _count_calls(monkeypatch, WardedTerminationStrategy, "admit")
        reasoner = VadalogReasoner(scenario.program.copy(), base_path=scenario.base_path)
        result = reasoner.reason(database=scenario.database, outputs=scenario.outputs)
        strategy = result.chase.strategy
        assert isinstance(strategy, WardedTerminationStrategy)
        assert result.chase.chase_steps > 500 and result.answers.facts("Control")
        assert keys == []
        assert strategy.tree_count() == 0 and strategy.ground_structure_size() == 0
        assert len(admits) == result.chase.chase_steps + strategy.stats.rejected
        assert strategy.stats.isomorphism_checks == strategy.stats.stored_facts == 0

    def test_strategy_decisions_match_the_recorded_table(self):
        # (chase_steps, rejected, vertical_prunes, horizontal_skips,
        #  stop_provenances_learned) of every differential-registry scenario
        # on ``compiled``.  Skipping keys for ground facts must not move any
        # of them.  Harmful-join elimination iterates sets, so the compiled
        # program (hence company-control's counts) is pinned under
        # PYTHONHASHSEED=0, in a child process.
        expected = {
            "allpsc": (188, 0, 0, 0, 0),
            "company-control": (18, 0, 0, 0, 0),
            "doctors": (80, 0, 0, 0, 0),
            "doctors-fd": (80, 0, 0, 0, 0),
            "ds-er-fusion": (140, 0, 0, 0, 0),
            "ds-label-prop": (303, 0, 0, 0, 0),
            "ibench-ont": (167, 0, 0, 0, 0),
            "ibench-stb": (136, 0, 0, 0, 0),
            "iwarded-parametric": (190, 0, 0, 0, 0),
            "iwarded-parametric-deep": (129, 6, 2, 0, 4),
            "iwarded-synthA": (3468, 294, 243, 22, 51),
            "iwarded-synthB": (1072, 354, 349, 7, 5),
            "iwarded-synthG": (455, 24, 16, 0, 8),
            "lubm": (178, 0, 0, 0, 0),
            "psc": (87, 0, 0, 0, 0),
            "scaling-arity": (1321, 303, 297, 11, 6),
            "scaling-atoms": (1321, 303, 297, 11, 6),
            "scaling-dbsize": (2738, 2044, 2038, 171, 6),
            "scaling-rules": (2642, 606, 594, 22, 12),
            "strong-links": (1097, 0, 0, 0, 0),
        }
        script = (
            "from differential_harness import SCENARIOS\n"
            "from repro.engine.reasoner import VadalogReasoner\n"
            f"for name in {sorted(expected)!r}:\n"
            "    scenario = SCENARIOS[name]()\n"
            "    reasoner = VadalogReasoner(scenario.program.copy(), executor='compiled')\n"
            "    result = reasoner.reason(database=scenario.database, outputs=scenario.outputs)\n"
            "    s = result.chase.strategy.stats\n"
            "    print(name, result.chase.chase_steps, s.rejected, s.vertical_prunes,\n"
            "          s.horizontal_skips, s.stop_provenances_learned)\n"
        )
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [tests_dir, os.path.join(tests_dir, os.pardir, "src"), env.get("PYTHONPATH", "")]
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        got = {}
        for line in child.stdout.splitlines():
            name, *counts = line.split()
            got[name] = tuple(int(c) for c in counts)
        assert got == expected

    def test_non_normalised_fallback_compares_per_tree_not_per_key(self, monkeypatch):
        # An existential in a two-atom-body rule is neither linear nor
        # warded: without normalisation the warded strategy falls back to a
        # global isomorphism check for it, one probe per warded tree.  A set
        # probe compares keys only on a hash hit, so every comparison is a
        # rejection: the count is bounded by the trees probed, not by the
        # keys stored in them.
        compares = []

        class CountingKey:
            __slots__ = ("key",)

            def __init__(self, key):
                self.key = key

            def __hash__(self):
                return hash(self.key)

            def __eq__(self, other):
                compares.append(None)
                return isinstance(other, CountingKey) and self.key == other.key

        original = termination_module.isomorphism_key
        monkeypatch.setattr(
            termination_module, "isomorphism_key", lambda f: CountingKey(original(f))
        )
        program = parse_program(
            """
            T(X, Z) :- E(X, Y), E(Y, W).
            U(X, Z) :- T(X, Z).
            V(X, Z) :- U(X, Z).
            T(Y, Z) :- V(X, Z), E(X, Y).
            """
        )
        database = [fact("E", i, (i + 1) % 30) for i in range(30)]
        strategy = WardedTerminationStrategy()
        result = run_chase(program, database, strategy=strategy)
        sizes = tuple(len(result.facts(p)) for p in "TUV")
        assert sizes == (900, 900, 900)
        assert (result.chase_steps, strategy.stats.rejected) == (2700, 30)
        assert strategy.ground_structure_size() == 2700
        assert len(compares) <= strategy.stats.rejected


class TestAcyclicChaseNodes:
    PROGRAM = '@output("Q"). P(X, Z) :- E(X, Y). Q(X, Z) :- P(X, Z). E(Y, X) :- E(X, Y).'

    def test_nodes_are_slotted_and_never_refer_to_themselves(self):
        result = VadalogReasoner(self.PROGRAM).reason(
            database={"E": [(i, i + 1) for i in range(10)]}
        )
        nodes = result.chase.nodes  # one node per stored fact; makes the missing input nodes
        assert nodes and not hasattr(next(iter(nodes)), "__dict__")
        for node in nodes:
            assert all(getattr(node, slot) is not node for slot in ChaseNode.__slots__)
        roots = [n for n in nodes if n.w_root is n]
        assert roots and all(n.l_root is n for n in nodes if n.is_input)

    def test_dropped_chase_graph_is_freed_without_the_collector(self):
        gc.collect()
        gc.disable()
        try:
            result = VadalogReasoner(self.PROGRAM).reason(
                database={"E": [(i, i + 1) for i in range(50)]}
            )
            assert len(result.chase.nodes) == 300
            del result
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = sum(1 for o in gc.garbage if isinstance(o, ChaseNode))
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == 0


class TestLazyInputNodes:
    """An extensional fact gets its chase node when a derivation reads it."""

    def test_unread_inputs_get_their_nodes_from_the_view(self):
        program = parse_program("Big(X) :- N(X), X > 90.")
        result = run_chase(program, [fact("N", i) for i in range(100)])
        # Nine derived facts and the nine inputs they were derived from.
        assert len(result.node_of) == 18 < len(result.store) == 109
        nodes = result.nodes
        assert Counter(n.fact for n in nodes) == Counter(result.store.facts())
        inputs = [n for n in nodes if n.is_input]
        assert len(inputs) == 100
        assert all(n.l_root is n and n.w_root is n and not n.parents for n in inputs)
        by_fact = {n.fact: n for n in nodes}
        for node in nodes:
            if not node.is_input:
                assert node.parents[0] is by_fact[node.parents[0].fact]
        assert all(a is b for a, b in zip(nodes, result.nodes))

    def test_retracting_an_unread_input_matches_a_fresh_run(self):
        program = """
        @output("Big"). @output("Pair").
        Big(X) :- N(X), X > 90.
        Pair(X, Y) :- Big(X), N(Y), Y > 95.
        """
        rows = [(i,) for i in range(100)]
        resident = ResidentReasoner(program, database={"N": rows})
        assert fact("N", 5) not in resident.result.node_of
        assert fact("N", 97) in resident.result.node_of
        resident.retract({"N": [(5,), (97,)]})
        fresh = VadalogReasoner(program).reason(
            database={"N": [row for row in rows if row[0] not in (5, 97)]}
        )
        answers = resident.query()
        for predicate in ("Big", "Pair"):
            assert set(answers.tuples(predicate)) == fresh.ground_tuples(predicate)
        result = resident.result
        assert Counter(n.fact for n in result.nodes) == Counter(result.store.facts())

    def test_the_view_shows_a_derived_fact_without_a_node(self):
        program = parse_program("Big(X) :- N(X), X > 90.")
        result = run_chase(program, [fact("N", i) for i in range(100)])
        del result.node_of[fact("Big", 95)]
        with pytest.raises(RuntimeError, match="without its chase node"):
            result.nodes

    def test_the_view_shows_a_node_whose_fact_is_gone(self):
        program = parse_program("Big(X) :- N(X), X > 90.")
        result = run_chase(program, [fact("N", i) for i in range(100)])
        result.store.remove(fact("Big", 95))
        assert Counter(n.fact for n in result.nodes) != Counter(result.store.facts())


class TestInternedLoadConstants:
    @staticmethod
    def _assert_one_object_per_value(facts):
        objects = {}
        for f in facts:
            for term in f.terms:
                objects.setdefault((type(term.value), term.value), set()).add(id(term))
        assert objects and all(len(ids) == 1 for ids in objects.values())
        return objects

    def test_sqlite_scan_shares_constants(self, tmp_path):
        path = tmp_path / "own.db"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE Own (src TEXT, dst TEXT, w REAL)")
            connection.executemany(
                "INSERT INTO Own VALUES (?, ?, ?)",
                [(f"c{i % 4}", f"c{(i + 1) % 4}", 0.5) for i in range(12)],
            )
        facts = DataSourceRecordManager("Own", SQLiteDataSource("Own", path)).facts()
        assert len(facts) == 12
        assert len(self._assert_one_object_per_value(facts)) == 5

    def test_csv_and_jsonl_scans_keep_types_apart(self, tmp_path):
        (tmp_path / "p.csv").write_text("a,1\nb,1\na,2\n")
        csv_facts = DataSourceRecordManager("P", CsvDataSource("P", tmp_path / "p.csv")).facts()
        assert len(self._assert_one_object_per_value(csv_facts)) == 4
        (tmp_path / "p.jsonl").write_text('["a", 1]\n["b", 1.0]\n["c", true]\n["d", 1]\n')
        jsonl_facts = DataSourceRecordManager(
            "P", JsonlDataSource("P", tmp_path / "p.jsonl")
        ).facts()
        objects = self._assert_one_object_per_value(jsonl_facts)
        assert {(int, 1), (float, 1.0), (bool, True)} <= set(objects)

    def test_mixed_numeric_column_round_trips_through_writeback(self, tmp_path):
        (tmp_path / "in.jsonl").write_text('["a", 1]\n["b", 1.0]\n["c", true]\n')
        program = """
        @bind("In", "jsonl", "in.jsonl").
        @bind("Out", "jsonl", "out.jsonl").
        @output("Out").
        Out(X, Y) :- In(X, Y).
        """
        VadalogReasoner(program, base_path=str(tmp_path)).reason()
        rows = [json.loads(line) for line in (tmp_path / "out.jsonl").read_text().splitlines()]
        assert sorted(rows, key=lambda row: row[0]) == [["a", 1], ["b", 1.0], ["c", True]]
        assert [type(row[1]) for row in sorted(rows, key=lambda row: row[0])] == [
            int,
            float,
            bool,
        ]


class TestLazyActiveDomain:
    DOM_PROGRAM = """
    @output("Gen"). @output("Scaled"). @output("Blocked").
    Gen(X, Z) :- Src(X, N).
    Scaled(X, V) :- Src(X, N), Dom(X), N > 1, V = N * 10.
    Blocked(X, Z) :- Gen(X, Z), Dom(Z).
    """

    @pytest.mark.parametrize("executor", ["naive", "compiled", "streaming"])
    def test_dom_free_run_never_builds_the_domain(self, executor):
        result = VadalogReasoner(
            "@output(\"T\"). T(X, Y) :- R(X, Y). T(X, Z) :- T(X, Y), R(Y, Z).",
            executor=executor,
        ).reason(database={"R": [(1, 2), (2, 3)]})
        assert result.ground_tuples("T") == {(1, 2), (2, 3), (1, 3)}
        assert result.chase.store._domain_counts is None

    @pytest.mark.parametrize("executor", ["naive", "compiled", "streaming"])
    def test_dom_program_answers(self, executor):
        result = VadalogReasoner(self.DOM_PROGRAM, executor=executor).reason(
            database={"Src": [("a", 1), ("b", 2), ("c", 3)]}
        )
        assert result.ground_tuples("Scaled") == {("b", 20), ("c", 30)}
        assert {f.values()[0] for f in result.facts("Gen")} == {"a", "b", "c"}
        assert not result.facts("Blocked")
        assert result.chase.store.in_active_domain(20)
