"""The reasoning service: locking, memo invalidation, async, mixed load."""

import asyncio
import sys
import threading
import time

import pytest

from differential_harness import _profile_facts
from repro.core.parser import parse_atom
from repro.core.transform import is_auxiliary_predicate
from repro.engine import reasoner as reasoner_module
from repro.engine.reasoner import VadalogReasoner
from repro.engine.service import ReasoningService, _ReadWriteLock
from repro.workloads import service_operations, service_scenario

REACH_PROGRAM = """
@output("Reach").
Reach(X, Y) :- Edge(X, Y).
Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
"""

#: Two independent derivation components: writes to one must not
#: invalidate cached answers of the other.
TWO_COMPONENTS = """
@output("A").
@output("C").
A(X) :- B(X).
C(X) :- D(X).
"""

COUNT_PROGRAM = """
@output("Degree").
Degree(X, N) :- Edge(X, Y), N = mcount(Y).
"""


class TestPredicateDependencies:
    def test_transitive_footprint(self):
        service = ReasoningService(
            """
            @output("Audit").
            Audit(Y, Z) :- Source(X), Reach(X, Y).
            Reach(X, Y) :- Edge(X, Y).
            Reach(X, Z) :- Reach(X, Y), Edge(Y, Z).
            """
        )
        assert service.footprint("Reach") == frozenset({"Reach", "Edge"})
        # The optimized program routes the existential through an auxiliary
        # predicate, which belongs to the footprint too.
        audit = service.footprint("Audit")
        assert {p for p in audit if not is_auxiliary_predicate(p)} == {
            "Audit",
            "Source",
            "Reach",
            "Edge",
        }

    def test_underived_predicate_maps_to_itself(self):
        service = ReasoningService(REACH_PROGRAM)
        assert service.footprint("Edge") == frozenset({"Edge"})

    def test_independent_components_do_not_share_footprints(self):
        service = ReasoningService(TWO_COMPONENTS)
        assert service.footprint("A") == frozenset({"A", "B"})
        assert service.footprint("C") == frozenset({"C", "D"})

    def test_cycle_members_share_the_complete_closure(self):
        # B is resolved first and recurses into A, which hits the B cycle
        # before ever seeing C — a per-predicate memo caches closure[A]
        # without C, and writes to C then never invalidate queries on A.
        service = ReasoningService(
            """
            @output("A").
            @output("B").
            B(X) :- A(X).
            B(X) :- C(X).
            A(X) :- B(X).
            """
        )
        assert service.footprint("A") == frozenset({"A", "B", "C"})
        assert service.footprint("B") == frozenset({"A", "B", "C"})
        assert service.footprint("C") == frozenset({"C"})

    def test_write_inside_cycle_invalidates_cycle_queries(self):
        # The service-level consequence of the closure above: a write to a
        # predicate feeding the cycle must drop cached answers of *every*
        # cycle member, whichever resolution order built the footprints.
        service = ReasoningService(
            """
            @output("A").
            @output("B").
            B(X) :- A(X).
            B(X) :- C(X).
            A(X) :- B(X).
            """,
            database={"C": [("c1",)]},
        )
        assert service.query("A(X)").ground_tuples("A") == {("c1",)}
        service.upsert({"C": [("c2",)]})
        assert service.query("A(X)").ground_tuples("A") == {("c1",), ("c2",)}


class TestReadWriteLock:
    def test_writer_counter_recovers_when_wait_raises(self):
        # A raising Condition.wait (e.g. KeyboardInterrupt) must not leave
        # _writers_waiting elevated: readers block while it is non-zero, so
        # a leaked increment deadlocks every subsequent read().
        lock = _ReadWriteLock()
        reader_in = threading.Event()
        release_reader = threading.Event()

        def reader():
            with lock.read():
                reader_in.set()
                release_reader.wait(5)

        thread = threading.Thread(target=reader)
        thread.start()
        assert reader_in.wait(5)

        def raising_wait(*args, **kwargs):
            raise KeyboardInterrupt

        original_wait = lock._cond.wait
        lock._cond.wait = raising_wait
        try:
            with pytest.raises(KeyboardInterrupt):
                with lock.write():
                    pass  # pragma: no cover - never entered
        finally:
            lock._cond.wait = original_wait
        release_reader.set()
        thread.join(5)
        assert lock._writers_waiting == 0
        with lock.read():  # must not deadlock
            pass


class TestAnswerCache:
    def test_repeated_query_hits_the_cache(self):
        service = ReasoningService(
            REACH_PROGRAM, database={"Edge": [("a", "b"), ("b", "c")]}
        )
        first = service.query('Reach("a", Y)')
        second = service.query('Reach("a", Y)')
        assert first.facts_by_predicate == second.facts_by_predicate
        stats = service.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1

    def test_write_invalidates_dependent_entries_only(self):
        service = ReasoningService(
            TWO_COMPONENTS, database={"B": [("b1",)], "D": [("d1",)]}
        )
        service.query("A(X)")
        service.query("C(X)")
        service.upsert({"D": [("d2",)]})
        stats = service.stats()
        # C(X) only: its null-free entry takes the write's delta.
        assert (stats["invalidations"], stats["patches"]) == (0, 1)
        # A(X) survives the write to D...
        service.query("A(X)")
        assert service.stats()["cache_hits"] == 1
        # ...and the C(X) spec answers with the patched, fresh answers.
        assert service.query("C(X)").ground_tuples("C") == {("d1",), ("d2",)}
        assert service.stats()["cache_hits"] == 2

    def test_invalidated_answers_are_recomputed_not_stale(self):
        service = ReasoningService(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        assert service.query('Reach("a", Y)').ground_tuples("Reach") == {
            ("a", "b")
        }
        service.upsert({"Edge": [("b", "c")]})
        assert service.query('Reach("a", Y)').ground_tuples("Reach") == {
            ("a", "b"),
            ("a", "c"),
        }
        service.retract({"Edge": [("b", "c")]})
        assert service.query('Reach("a", Y)').ground_tuples("Reach") == {
            ("a", "b")
        }

    def test_point_queries_share_one_entry(self):
        # One memo entry per answer predicate: the point queries filter it,
        # so distinct query texts cannot grow the memo and need no bound.
        service = ReasoningService(
            REACH_PROGRAM,
            database={"Edge": [("a", "b"), ("b", "c"), ("c", "d")]},
        )
        for node in ("a", "b", "c"):
            service.query(f'Reach("{node}", Y)')
        stats = service.stats()
        assert stats["cached_answers"] == 1
        assert (stats["cache_misses"], stats["cache_hits"]) == (1, 2)

    def test_writer_waits_for_the_reader_filling_the_memo(self, monkeypatch):
        # A reader fills the memo under the reader lock and a writer patches
        # or drops entries under the writer lock, so answers computed before
        # a write are never served after it unpatched.
        service = ReasoningService(REACH_PROGRAM, database={"Edge": [("a", "b")]})
        extracting = threading.Event()
        release = threading.Event()
        original = reasoner_module.extract_answers

        def blocking_extract(*args, **kwargs):
            extracting.set()
            release.wait(10)
            return original(*args, **kwargs)

        monkeypatch.setattr(reasoner_module, "extract_answers", blocking_extract)
        done = []
        reader = threading.Thread(
            target=lambda: done.append(("read", service.query('Reach("a", Y)')))
        )
        writer = threading.Thread(
            target=lambda: done.append(("write", service.upsert({"Edge": [("b", "c")]})))
        )
        reader.start()
        assert extracting.wait(10)
        epoch = service.resident.epoch
        writer.start()
        deadline = time.monotonic() + 10
        while not service._lock._writers_waiting and time.monotonic() < deadline:
            time.sleep(0.001)
        assert service._lock._writers_waiting == 1  # the writer is queued
        assert service.resident.epoch == epoch and done == []
        release.set()
        reader.join(10)
        writer.join(10)
        assert [kind for kind, _ in done] == ["read", "write"]
        assert done[0][1].ground_tuples("Reach") == {("a", "b")}
        assert service.query('Reach("a", Y)').ground_tuples("Reach") == {
            ("a", "b"),
            ("a", "c"),
        }
        stats = service.stats()
        # The write patched the entry the reader filled: one miss, one hit.
        assert (stats["cache_misses"], stats["cache_hits"]) == (1, 1)
        assert (stats["invalidations"], stats["patches"]) == (0, 1)

    def test_full_extraction_and_outputs_key_separately(self):
        service = ReasoningService(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        service.query()
        service.query(outputs=["Reach"])
        service.query()
        stats = service.stats()
        # Both name the declared output: one memo entry serves all three.
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 2


class TestDeferredMaintenance:
    def test_query_settles_dirty_reasoner(self):
        # Aggregate retraction defers to a rebuild; the service's query path
        # must settle under the writer lock before reading a snapshot.
        service = ReasoningService(
            COUNT_PROGRAM, database={"Edge": [("a", "b"), ("a", "c")]}
        )
        assert service.query().ground_tuples("Degree") == {("a", 2)}
        service.retract({"Edge": [("a", "c")]})
        assert service.resident.needs_settle
        assert service.query().ground_tuples("Degree") == {("a", 1)}
        assert not service.resident.needs_settle


class TestAsyncApi:
    def test_async_round_trip(self):
        async def scenario():
            service = ReasoningService(
                REACH_PROGRAM, database={"Edge": [("a", "b")]}
            )
            await service.upsert_async({"Edge": [("b", "c")]})
            answers = await service.query_async('Reach("a", Y)')
            await service.retract_async({"Edge": [("b", "c")]})
            after = await service.query_async('Reach("a", Y)')
            return answers, after

        answers, after = asyncio.run(scenario())
        assert answers.ground_tuples("Reach") == {("a", "b"), ("a", "c")}
        assert after.ground_tuples("Reach") == {("a", "b")}

    def test_concurrent_async_queries(self):
        async def scenario():
            service = ReasoningService(
                REACH_PROGRAM,
                database={"Edge": [("a", "b"), ("b", "c"), ("c", "d")]},
            )
            return await asyncio.gather(
                *(service.query_async(f'Reach("{n}", Y)') for n in "abc")
            )

        answers = asyncio.run(scenario())
        assert answers[0].ground_tuples("Reach") == {
            ("a", "b"),
            ("a", "c"),
            ("a", "d"),
        }
        assert answers[2].ground_tuples("Reach") == {("c", "d")}


class TestConcurrency:
    def test_readers_and_writer_converge(self):
        service = ReasoningService(
            REACH_PROGRAM, database={"Edge": [("n0", "n1")]}
        )
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    service.query('Reach("n0", Y)')
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for i in range(1, 30):
                service.upsert({"Edge": [(f"n{i}", f"n{i + 1}")]})
                if i % 5 == 0:
                    service.retract({"Edge": [(f"n{i}", f"n{i + 1}")]})
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert not errors
        # The surviving chain is n0..n25 plus the tail edges not retracted.
        expected = VadalogReasoner(REACH_PROGRAM).reason(
            database={
                "Edge": [
                    (f"n{i}", f"n{i + 1}")
                    for i in range(30)
                    if not (i > 0 and i % 5 == 0)
                ]
            },
            outputs=["Reach"],
        )
        assert service.query().ground_tuples("Reach") == expected.answers.ground_tuples(
            "Reach"
        )


    def test_concurrent_point_queries_share_one_index(self):
        """Readers racing to build the point-query index never see it half built."""
        n = 30
        service = ReasoningService(
            REACH_PROGRAM,
            database={"Edge": [(f"n{i}", f"n{(i + 1) % n}") for i in range(n)]},
        )
        workers = 8
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for wave in range(4):
                # A write drops the extraction and the index built over it.
                service.upsert({"Edge": [(f"n{wave}", f"x{wave}")]})
                everything = service.query().facts("Reach")
                barrier = threading.Barrier(workers)

                def reader(offset):
                    barrier.wait(timeout=30)
                    for i in range(offset, n, workers):
                        for text in (f'Reach("n{i}", Y)', f'Reach(X, "n{i}")'):
                            atom = parse_atom(text)
                            expected = tuple(
                                f for f in everything if atom.match(f) is not None
                            )
                            if service.query(text).facts("Reach") != expected:
                                failures.append((wave, text))

                threads = [
                    threading.Thread(target=reader, args=(k,)) for k in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class TestMixedWorkload:
    def test_service_loop_matches_from_scratch(self):
        """Replay a small mixed stream; final answers must match reason()."""
        scenario = service_scenario(n_nodes=15)
        operations = list(
            service_operations(scenario, n_ops=80, update_ratio=(1, 3))
        )
        service = ReasoningService(
            scenario.program.copy(), database=scenario.database
        )
        edges = {tuple(row) for row in scenario.database.relation("Edge")}
        sources = [tuple(row) for row in scenario.database.relation("Source")]
        for kind, payload in operations:
            if kind == "upsert":
                edges.update(tuple(row) for row in payload.get("Edge", ()))
                service.upsert(payload)
            elif kind == "retract":
                edges.difference_update(
                    tuple(row) for row in payload.get("Edge", ())
                )
                service.retract(payload)
            else:
                service.query(payload)
        reference = VadalogReasoner(service_scenario(n_nodes=15).program.copy()).reason(
            database={"Edge": sorted(edges), "Source": sources},
            outputs=scenario.outputs,
        )
        final = service.query()
        assert final.ground_tuples("Reach") == reference.answers.ground_tuples(
            "Reach"
        )
        _, _, service_patterns = _profile_facts(final.facts("Audit"))
        _, _, reference_patterns = _profile_facts(
            reference.answers.facts("Audit")
        )
        assert service_patterns == reference_patterns
        stats = service.stats()
        assert stats["upserts"] + stats["retractions"] > 0
        assert stats["queries"] > 0

    def test_resident_accessor_shares_state(self):
        service = ReasoningService(
            REACH_PROGRAM, database={"Edge": [("a", "b")]}
        )
        service.upsert({"Edge": [("b", "c")]})
        assert service.resident.stats()["upserts"] == 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
