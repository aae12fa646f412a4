"""Execution budgets, cooperative cancellation and structured run statuses.

Covers the resource-governance layer (``repro.core.limits``) across all
four executors: every budget axis (deadline, derived facts, rounds,
resident facts) ends the run with a structured status and a *sound partial
materialisation* (a subset of the fault-free fixpoint) instead of raising;
a :class:`CancellationToken` tripped before or during a run yields
``"cancelled"``.  The budget is the only limit mechanism: ceilings carried
by the reasoner's ``ChaseConfig`` end runs with the same statuses (the
former raising ``ChaseConfig.max_rounds`` / ``max_facts`` are gone).
"""

import threading
import time

import pytest

from repro import (
    CancellationToken,
    ChaseConfig,
    ExecutionBudget,
    VadalogReasoner,
    parse_program,
    reason,
    run_chase,
)
from repro.core.chase import ChaseEngine
from repro.core.limits import (
    RUN_STATUSES,
    STATUS_BUDGET,
    STATUS_CANCELLED,
    STATUS_COMPLETE,
    STATUS_DEADLINE,
    ExecutionGovernor,
    ExecutionStopped,
)
from repro.engine.reasoner import EXECUTORS

TC_PROGRAM = """
@output("T").
T(X, Y) :- E(X, Y).
T(X, Z) :- T(X, Y), E(Y, Z).
"""

CHAIN_DB = {"E": [(i, i + 1) for i in range(30)]}


def chain_reasoner(executor, **kwargs):
    return VadalogReasoner(TC_PROGRAM, executor=executor, **kwargs)


@pytest.fixture(scope="module")
def full_tuples():
    result = reason(TC_PROGRAM, database=CHAIN_DB)
    assert result.status == STATUS_COMPLETE
    return set(result.ground_tuples("T"))


# ---------------------------------------------------------------------------
# ExecutionBudget / CancellationToken / governor basics
# ---------------------------------------------------------------------------


class TestPrimitives:
    def test_default_budget_is_unlimited(self):
        assert ExecutionBudget().is_unlimited()
        assert not ExecutionBudget(max_rounds=3).is_unlimited()

    def test_governor_skipped_for_ungoverned_config(self):
        assert ExecutionGovernor.for_config(ChaseConfig()) is None
        assert (
            ExecutionGovernor.for_config(ChaseConfig(budget=ExecutionBudget()))
            is None
        )
        governed = ChaseConfig(budget=ExecutionBudget(max_rounds=1))
        assert ExecutionGovernor.for_config(governed) is not None

    def test_cancellation_token_keeps_first_reason(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled
        assert token.reason == "first"

    def test_tick_is_strided(self):
        token = CancellationToken()
        governor = ExecutionGovernor(cancel=token)
        token.cancel()
        # Ticks below the stride never consult the token.
        for _ in range(ExecutionGovernor.TICK_STRIDE - 1):
            governor.tick()
        with pytest.raises(ExecutionStopped) as err:
            governor.tick()
        assert err.value.status == STATUS_CANCELLED

    def test_check_now_is_not_strided(self):
        token = CancellationToken()
        governor = ExecutionGovernor(cancel=token)
        governor.check_now()  # no-op while not cancelled
        token.cancel("stop")
        with pytest.raises(ExecutionStopped):
            governor.check_now()


# ---------------------------------------------------------------------------
# Budget axes across every executor
# ---------------------------------------------------------------------------


class TestBudgetsAcrossExecutors:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_unlimited_run_is_complete(self, executor, full_tuples):
        result = chain_reasoner(executor).reason(database=CHAIN_DB)
        assert result.status == STATUS_COMPLETE
        assert result.is_complete()
        assert result.stop_reason is None
        assert set(result.ground_tuples("T")) == full_tuples
        assert result.chase.peak_resident_facts >= len(full_tuples)
        assert result.chase.stats()["status"] == STATUS_COMPLETE

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_derived_fact_budget(self, executor, full_tuples):
        result = chain_reasoner(executor).reason(
            database=CHAIN_DB, budget=ExecutionBudget(max_derived_facts=5)
        )
        assert result.status == STATUS_BUDGET
        assert not result.is_complete()
        assert "derived-fact budget" in result.stop_reason
        partial = set(result.ground_tuples("T"))
        assert partial < full_tuples
        assert any("sound subset" in warning for warning in result.warnings)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_round_budget(self, executor, full_tuples):
        result = chain_reasoner(executor).reason(
            database=CHAIN_DB, budget=ExecutionBudget(max_rounds=2)
        )
        assert result.status == STATUS_BUDGET
        assert "round budget" in result.stop_reason
        assert set(result.ground_tuples("T")) <= full_tuples

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_resident_fact_ceiling(self, executor, full_tuples):
        result = chain_reasoner(executor).reason(
            database=CHAIN_DB, budget=ExecutionBudget(max_resident_facts=40)
        )
        assert result.status == STATUS_BUDGET
        assert "resident-fact ceiling" in result.stop_reason
        assert set(result.ground_tuples("T")) < full_tuples

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_zero_deadline(self, executor):
        result = chain_reasoner(executor).reason(database=CHAIN_DB, deadline=0.0)
        assert result.status == STATUS_DEADLINE
        assert "deadline" in result.stop_reason

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_pre_cancelled_token(self, executor):
        token = CancellationToken()
        token.cancel("caller gave up")
        result = chain_reasoner(executor).reason(database=CHAIN_DB, cancel=token)
        assert result.status == STATUS_CANCELLED
        assert result.stop_reason == "caller gave up"

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_status_is_always_a_known_value(self, executor):
        result = chain_reasoner(executor).reason(
            database=CHAIN_DB, budget=ExecutionBudget(max_rounds=1)
        )
        assert result.status in RUN_STATUSES


class TestMidRunCancellation:
    def test_cancel_from_another_thread(self):
        token = CancellationToken()
        reasoner = chain_reasoner("compiled")
        timer = threading.Timer(0.05, token.cancel, args=("background stop",))
        timer.start()
        try:
            # Big enough to still be chasing when the timer fires.
            db = {"E": [(i, i + 1) for i in range(400)]}
            result = reasoner.reason(database=db, cancel=token)
        finally:
            timer.cancel()
        assert result.status in (STATUS_CANCELLED, STATUS_COMPLETE)
        if result.status == STATUS_CANCELLED:
            assert result.stop_reason == "background stop"

    def test_cancel_mid_stream(self):
        token = CancellationToken()
        streamed = chain_reasoner("streaming").stream(
            database=CHAIN_DB, cancel=token
        )
        answers = streamed.iter_answers()
        first = next(answers)
        assert first is not None
        token.cancel("stop streaming")
        assert list(answers) == []
        assert streamed.status == STATUS_CANCELLED


class TestTicksPerFullMatch:
    """The compiled kernel ticks once per full match, duplicates included."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = [0]
        original = getattr(owner, name)

        def counted(self, *args):
            calls[0] += 1
            return original(self, *args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_tick_count_equals_full_matches(self, monkeypatch):
        ticks = self.count_calls(monkeypatch, ExecutionGovernor, "tick")
        fires = self.count_calls(monkeypatch, ChaseEngine, "fire_slots")
        db = {"E": [(i, i + 1) for i in range(30)] + [(i, i + 2) for i in range(30)]}
        budget = ExecutionBudget(max_rounds=10**6)
        naive = chain_reasoner("naive").reason(database=db, budget=budget)
        naive_ticks = ticks[0]
        ticks[0] = 0
        result = chain_reasoner("compiled").reason(database=db, budget=budget)
        # A single-head ground program: one candidate fact per full match,
        # and the naive matcher ticks once per binding.
        assert ticks[0] == result.chase.candidate_facts == naive_ticks
        assert result.chase.candidate_facts == naive.chase.candidate_facts
        # Most matches were dropped as duplicates before reaching fire_slots.
        assert fires[0] == result.chase.chase_steps < ticks[0]

    @pytest.mark.parametrize(
        "limit, status",
        [("deadline", STATUS_DEADLINE), ("cancel", STATUS_CANCELLED)],
    )
    def test_stops_a_run_of_duplicate_matches(self, monkeypatch, limit, status):
        # Only the per-match ticks may stop this run: no round-boundary check.
        monkeypatch.setattr(ExecutionGovernor, "round_status", lambda *args: None)
        fires = self.count_calls(monkeypatch, ChaseEngine, "fire_slots")
        token = CancellationToken()
        token.cancel()
        limits = {"deadline": {"deadline": 0.0}, "cancel": {"cancel": token}}[limit]
        reasoner = VadalogReasoner('@output("T"). T(X) :- E(X, Y).')
        db = {"E": [(1, y) for y in range(3 * ExecutionGovernor.TICK_STRIDE)], "T": [(1,)]}
        result = reasoner.reason(database=db, **limits)
        assert result.status == status
        assert fires[0] == 0


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


class TestConfigPlumbing:
    # A ceiling fixed at construction (``chase_config=``) rather than per
    # call: what ``ChaseConfig(max_rounds=…)`` / ``(max_facts=…)`` used to
    # enforce by raising now ends the run with a status and a sound subset.
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_config_round_ceiling_ends_with_status(self, executor, full_tuples):
        config = ChaseConfig(budget=ExecutionBudget(max_rounds=1))
        result = chain_reasoner(executor, chase_config=config).reason(database=CHAIN_DB)
        assert result.status == STATUS_BUDGET
        assert "round budget" in result.stop_reason
        assert set(result.ground_tuples("T")) < full_tuples

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_config_fact_ceiling_ends_with_status(self, executor, full_tuples):
        config = ChaseConfig(budget=ExecutionBudget(max_resident_facts=35))
        result = chain_reasoner(executor, chase_config=config).reason(database=CHAIN_DB)
        assert result.status == STATUS_BUDGET
        assert "resident-fact ceiling" in result.stop_reason
        assert set(result.ground_tuples("T")) < full_tuples
        # Checked at round granularity: the overshoot is bounded by one
        # round's derivations, far from the 465-tuple fixpoint.
        assert len(result.chase.store) < len(full_tuples)

    def test_deadline_argument_overrides_budget_deadline(self):
        # An explicit deadline= merges over the budget's own deadline axis.
        result = reason(
            TC_PROGRAM,
            database=CHAIN_DB,
            budget=ExecutionBudget(deadline_seconds=3600.0, max_rounds=1),
            deadline=0.0,
        )
        assert result.status == STATUS_DEADLINE

    def test_budget_argument_does_not_mutate_reasoner_default(self):
        reasoner = chain_reasoner("compiled")
        limited = reasoner.reason(
            database=CHAIN_DB, budget=ExecutionBudget(max_rounds=1)
        )
        assert limited.status == STATUS_BUDGET
        again = reasoner.reason(database=CHAIN_DB)
        assert again.status == STATUS_COMPLETE

    def test_chase_config_has_no_raising_limits(self):
        with pytest.raises(TypeError):
            ChaseConfig(max_rounds=1)
        with pytest.raises(TypeError):
            ChaseConfig(max_facts=5)
        # The deferred EGD and constraint checks always run.
        with pytest.raises(TypeError):
            ChaseConfig(check_constraints=False)
        with pytest.raises(TypeError):
            ChaseConfig(apply_egds=False)

    def test_peak_resident_facts_in_stats(self):
        result = reason(TC_PROGRAM, database=CHAIN_DB)
        stats = result.chase.stats()
        assert stats["peak_resident_facts"] == result.chase.peak_resident_facts
        assert stats["peak_resident_facts"] >= len(CHAIN_DB["E"])


# ---------------------------------------------------------------------------
# Unknown-executor errors (satellite: clear ValueError listing EXECUTORS)
# ---------------------------------------------------------------------------


class TestUnknownExecutor:
    def test_reasoner_rejects_unknown_executor(self):
        with pytest.raises(ValueError) as err:
            VadalogReasoner(TC_PROGRAM, executor="quantum")
        message = str(err.value)
        assert "quantum" in message
        for name in EXECUTORS:
            assert name in message

    def test_reason_helper_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            reason(TC_PROGRAM, database=CHAIN_DB, executor="gpu")

    def test_run_chase_rejects_unknown_executor(self):
        program = parse_program(TC_PROGRAM)
        with pytest.raises(ValueError) as err:
            run_chase(program, executor="streaming")
        message = str(err.value)
        assert "streaming" in message
        assert "compiled" in message

    def test_parallel_is_an_unknown_executor(self):
        # The sharded executor was removed; no alias takes its place.
        with pytest.raises(ValueError) as err:
            VadalogReasoner(TC_PROGRAM, executor="parallel")
        assert all(name in str(err.value) for name in EXECUTORS)
        with pytest.raises(ValueError) as err:
            reason(TC_PROGRAM, database=CHAIN_DB, executor="parallel")
        assert all(name in str(err.value) for name in EXECUTORS)
        with pytest.raises(ValueError) as err:
            run_chase(parse_program(TC_PROGRAM), executor="parallel")
        assert "'parallel'" in str(err.value)
        assert "compiled" in str(err.value) and "naive" in str(err.value)


# ---------------------------------------------------------------------------
# Deadline enforcement actually bounds wall-clock
# ---------------------------------------------------------------------------


class TestDeadlineWallClock:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_deadline_bounds_elapsed_time(self, executor, full_tuples):
        deadline = 0.25
        reasoner = chain_reasoner(executor)
        db = {"E": [(i, i + 1) for i in range(250)]}
        started = time.perf_counter()
        result = reasoner.reason(database=db, deadline=deadline)
        elapsed = time.perf_counter() - started
        if result.status == STATUS_COMPLETE:
            # The machine was fast enough: nothing to assert about bounding.
            return
        assert result.status == STATUS_DEADLINE
        # Generous 8x slack: CI boxes stall, but a run that ignores the
        # deadline entirely would take far longer on this input.
        assert elapsed < deadline * 8
