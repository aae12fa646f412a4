"""Chaos suite: deterministic fault injection against every executor.

Drives the robustness layer with :mod:`repro.testing.faults` and checks the
differential contract from the fault-tolerance work: for every executor ×
injected fault, the run either produces **identical answers** to the
fault-free baseline (the fault was absorbed by retries / worker recovery)
or ends with ``status != "complete"`` and a partial answer set that is a
**subset** of the baseline — never an unhandled exception.

Also pinned here: the fork-backend pool cleanup regression (no orphaned
child processes on any exit path, including a crash that propagates) and
the acceptance criterion that a deadline stops a 10x-oversized
``fig8-scaling`` run within 2x the requested wall-clock.
"""

import csv
import multiprocessing
import time

import pytest

from repro.core.limits import (
    STATUS_COMPLETE,
    STATUS_DEADLINE,
    RUN_STATUSES,
)
from repro.engine.reasoner import EXECUTORS, VadalogReasoner
from repro.testing import FaultPlan, FaultSpec, WorkerCrash, inject
from repro.workloads import dbsize_scenario

TC_PROGRAM = """
@output("T").
T(X, Y) :- E(X, Y).
T(X, Z) :- T(X, Y), E(Y, Z).
"""

CHAIN_ROWS = [(i, i + 1) for i in range(30)]
CHAIN_DB = {"E": CHAIN_ROWS}

PARALLEL_BACKENDS = ("threads", "fork")


@pytest.fixture(scope="module")
def baseline():
    result = VadalogReasoner(TC_PROGRAM, executor="compiled").reason(
        database=CHAIN_DB
    )
    assert result.status == STATUS_COMPLETE
    return set(result.ground_tuples("T"))


@pytest.fixture()
def csv_program(tmp_path):
    path = tmp_path / "edges.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerows(CHAIN_ROWS)
    return (
        f'@bind("E", "csv", "{path}").\n'
        '@output("T").\n'
        "T(X, Y) :- E(X, Y).\n"
        "T(X, Z) :- T(X, Y), E(Y, Z).\n"
    )


def assert_chaos_contract(result, baseline):
    """The differential chaos contract: absorbed or sound-partial."""
    assert result.status in RUN_STATUSES
    answers = set(result.ground_tuples("T"))
    if result.status == STATUS_COMPLETE:
        assert answers == baseline
    else:
        assert answers <= baseline


# ---------------------------------------------------------------------------
# The harness itself is deterministic
# ---------------------------------------------------------------------------


class TestFaultHarness:
    def test_times_and_after_counters(self):
        plan = FaultPlan(
            FaultSpec(point="p", exception=WorkerCrash, times=2, after=1)
        )
        plan.visit("p", {})  # skipped by after=1
        with pytest.raises(WorkerCrash):
            plan.visit("p", {})
        with pytest.raises(WorkerCrash):
            plan.visit("p", {})
        plan.visit("p", {})  # times=2 exhausted
        assert plan.spec_hits() == 4
        assert plan.spec_fired() == 2
        assert plan.fired == {"p": 2}

    def test_match_filters_on_context(self):
        plan = FaultPlan(
            FaultSpec(
                point="p",
                exception=WorkerCrash,
                times=None,
                match=lambda ctx: ctx.get("shard") == 1,
            )
        )
        plan.visit("p", {"shard": 0})
        with pytest.raises(WorkerCrash):
            plan.visit("p", {"shard": 1})

    def test_seeded_probability_is_reproducible(self):
        def outcomes(seed):
            plan = FaultPlan(
                FaultSpec(point="p", exception=WorkerCrash, times=None, probability=0.5),
                seed=seed,
            )
            fired = []
            for _ in range(32):
                try:
                    plan.visit("p", {})
                    fired.append(False)
                except WorkerCrash:
                    fired.append(True)
            return fired

        assert outcomes(7) == outcomes(7)
        assert outcomes(7) != outcomes(8)

    def test_dict_shorthand(self):
        with inject({"point": "p", "exception": WorkerCrash}) as plan:
            with pytest.raises(WorkerCrash):
                plan.visit("p", {})

    def test_fault_point_is_noop_without_plan(self):
        from repro.testing import fault_point

        fault_point("anything", context="ignored")  # must not raise


# ---------------------------------------------------------------------------
# Differential chaos matrix
# ---------------------------------------------------------------------------


class TestChaosMatrix:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_transient_datasource_fault_is_absorbed(
        self, executor, csv_program, baseline
    ):
        reasoner = VadalogReasoner(csv_program, executor=executor)
        with inject(
            FaultSpec(point="datasource.scan", exception=OSError, times=1)
        ) as plan:
            result = reasoner.reason()
        assert plan.spec_fired() == 1
        assert result.status == STATUS_COMPLETE
        assert set(result.ground_tuples("T")) == baseline
        assert result.source_stats["E"]["retries"] == 1
        assert result.source_stats["E"]["retry_giveups"] == 0

    # Every sequential round loop — streaming drives the compiled one.
    @pytest.mark.parametrize("executor", ("compiled", "naive", "streaming"))
    def test_slow_rule_with_deadline_yields_sound_partial(
        self, executor, baseline
    ):
        reasoner = VadalogReasoner(TC_PROGRAM, executor=executor)
        with inject(FaultSpec(point="chase.rule", delay=0.05, times=None)):
            result = reasoner.reason(database=CHAIN_DB, deadline=0.2)
        assert result.status == STATUS_DEADLINE
        assert_chaos_contract(result, baseline)
        assert set(result.ground_tuples("T")) < baseline

    def test_slow_parallel_worker_with_deadline(self, baseline):
        reasoner = VadalogReasoner(TC_PROGRAM, executor="parallel", parallelism=4)
        with inject(FaultSpec(point="parallel.worker", delay=0.05, times=None)):
            result = reasoner.reason(database=CHAIN_DB, deadline=0.2)
        assert result.status == STATUS_DEADLINE
        assert_chaos_contract(result, baseline)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_single_worker_crash_is_retried(self, backend, baseline):
        reasoner = VadalogReasoner(
            TC_PROGRAM, executor="parallel", parallelism=4, parallel_backend=backend
        )
        with inject(
            FaultSpec(point="parallel.worker", exception=WorkerCrash, times=1)
        ) as plan:
            result = reasoner.reason(database=CHAIN_DB)
        assert plan.spec_fired() == 1
        assert result.status == STATUS_COMPLETE
        assert set(result.ground_tuples("T")) == baseline
        recovery = result.chase.extra_stats.get("parallel_recovery")
        assert recovery, "worker recovery was not recorded"
        assert recovery[0]["action"] == "retry"
        assert any("retrying the shard" in warning for warning in result.warnings)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_repeated_crash_degrades_shard_to_sequential(self, backend, baseline):
        reasoner = VadalogReasoner(
            TC_PROGRAM, executor="parallel", parallelism=4, parallel_backend=backend
        )
        with inject(
            FaultSpec(
                point="parallel.worker",
                exception=WorkerCrash,
                times=2,
                match=lambda ctx: ctx.get("shard") == 0,
            )
        ):
            result = reasoner.reason(database=CHAIN_DB)
        assert result.status == STATUS_COMPLETE
        assert set(result.ground_tuples("T")) == baseline
        actions = [
            entry["action"]
            for entry in result.chase.extra_stats.get("parallel_recovery", ())
        ]
        assert actions == ["retry", "sequential"]
        assert any("sequential" in warning for warning in result.warnings)


# ---------------------------------------------------------------------------
# Fork pool cleanup (satellite: no orphaned children on any exit path)
# ---------------------------------------------------------------------------


class TestForkPoolCleanup:
    def assert_no_orphans(self):
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            children = multiprocessing.active_children()
            if not children:
                return
            time.sleep(0.05)
        pytest.fail(f"orphaned child processes: {multiprocessing.active_children()}")

    def test_clean_fork_run_leaves_no_children(self, baseline):
        reasoner = VadalogReasoner(
            TC_PROGRAM, executor="parallel", parallelism=4, parallel_backend="fork"
        )
        result = reasoner.reason(database=CHAIN_DB)
        assert set(result.ground_tuples("T")) == baseline
        self.assert_no_orphans()

    def test_propagating_crash_leaves_no_children(self):
        # A fault that outlives retry AND driver degradation is a genuine
        # error and propagates — but the pool must still be torn down.
        reasoner = VadalogReasoner(
            TC_PROGRAM, executor="parallel", parallelism=4, parallel_backend="fork"
        )
        with inject(
            FaultSpec(point="parallel.worker", exception=WorkerCrash, times=None)
        ):
            with pytest.raises(WorkerCrash):
                reasoner.reason(database=CHAIN_DB)
        self.assert_no_orphans()


# ---------------------------------------------------------------------------
# Acceptance: deadline bounds a 10x-oversized fig8-scaling run
# ---------------------------------------------------------------------------


class TestOversizedDeadline:
    def test_deadline_stops_oversized_scaling_run(self):
        # The fig8-scaling benchmark runs dbsize_scenario(20); 10x that
        # materialises ~440k facts and takes minutes unbounded.  With a
        # deadline the run must come back within 2x the requested wall-clock
        # (measured around the whole reason() call, so parse/compile setup
        # counts against the bound too).
        scenario = dbsize_scenario(200)
        deadline = 2.0
        reasoner = VadalogReasoner(scenario.program.copy(), executor="compiled")
        started = time.perf_counter()
        result = reasoner.reason(
            database=scenario.database, outputs=scenario.outputs, deadline=deadline
        )
        elapsed = time.perf_counter() - started
        assert result.status == STATUS_DEADLINE
        assert elapsed < 2 * deadline, (
            f"deadline of {deadline}s not enforced: run took {elapsed:.2f}s"
        )
