"""The CI benchmark gates of ``tools/check_bench.py``, fed synthetic numbers.

Each gate's judge must pass clean numbers and fail them slowed down 2x;
the gate functions are driven end to end with the measurement replaced, so
``--inject-slowdown 2`` is shown to trip all three without timing anything.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_bench  # noqa: E402

COMMITTED = json.loads(check_bench.BASELINE.read_text())
SERVICE = COMMITTED["service_throughput"]
SCALING = COMMITTED["scaling_curves"]


def _grid_order(points):
    """Baseline points are stored key-sorted; a sweep yields grid order."""
    return sorted(points, key=lambda p: (p["axis"], p["executor"], p["value"]))


def _service_measurement(**overrides):
    return {
        "queries": 545,
        "queries_per_second": SERVICE["queries_per_second"],
        "speedup_vs_scratch": SERVICE["speedup_vs_scratch"],
        "p50_query_seconds": SERVICE["p50_query_seconds"],
        **overrides,
    }


class TestWithin:
    def test_fails_only_past_both_the_factor_and_the_floor(self):
        assert check_bench.within(1.2, 1.0, 1.25, 0.05)
        assert check_bench.within(1.3, 1.0, 1.25, 0.5)  # under the floor
        assert check_bench.within(0.04, 0.01, 1.25, 0.05)  # 4x, but 30 ms
        assert not check_bench.within(1.3, 1.0, 1.25, 0.05)


class TestScalingJudge:
    def test_committed_curves_pass_against_themselves(self):
        points = _grid_order(SCALING["points"])
        assert len(points) == 40
        assert check_bench.judge_scaling(points, SCALING["points"], scale=1.0) == []

    def test_2x_slowdown_fails_on_the_grid_total(self):
        """Every smoke point sits under the 0.15 s floor; the totals do not."""
        points = _grid_order(SCALING["points"])
        failures = check_bench.judge_scaling(points, SCALING["points"], 1.0, slowdown=2.0)
        assert len(failures) == 1 and failures[0].startswith("grid total")

    def test_a_uniformly_slower_machine_passes(self):
        points = _grid_order(SCALING["points"])
        assert check_bench.judge_scaling(points, SCALING["points"], 2.0, slowdown=2.0) == []

    def test_one_cliff_fails(self):
        points = [dict(p) for p in _grid_order(SCALING["points"])]
        points[0]["elapsed_seconds"] += 1.0
        failures = check_bench.judge_scaling(points, SCALING["points"], 1.0)
        assert any("the scaled baseline" in f and "grid total" not in f for f in failures)

    def test_fact_count_drift_fails(self):
        points = [dict(p) for p in _grid_order(SCALING["points"])]
        points[3]["peak_resident_facts"] += 1
        failures = check_bench.judge_scaling(points, SCALING["points"], 1.0)
        assert len(failures) == 1 and "peak_resident_facts" in failures[0]

    def test_grid_drift_fails_in_both_directions(self):
        points = _grid_order(SCALING["points"])
        missing = check_bench.judge_scaling(points[1:], SCALING["points"], 1.0)
        assert any("was not measured" in f for f in missing)
        extra = dict(points[0], value=99)
        unexpected = check_bench.judge_scaling([*points, extra], SCALING["points"], 1.0)
        assert any("has no baseline" in f for f in unexpected)

    def test_non_monotone_curve_fails(self):
        points = [dict(p) for p in _grid_order(SCALING["points"])]
        depth = [p for p in points if p["axis"] == "recursion-depth"]
        depth[0]["derived_facts"], depth[1]["derived_facts"] = (
            depth[1]["derived_facts"],
            depth[0]["derived_facts"],
        )
        baseline = [dict(p) for p in points]
        failures = check_bench.judge_scaling(points, baseline, 1.0)
        assert len(failures) == 1 and "not monotone" in failures[0]


class TestServiceJudge:
    def test_committed_numbers_pass(self):
        assert check_bench.judge_service(_service_measurement(), SERVICE, 1.0) == []

    def test_2x_slowdown_fails_on_throughput(self):
        failures = check_bench.judge_service(_service_measurement(), SERVICE, 1.0, 2.0)
        assert len(failures) == 1 and failures[0].startswith("throughput")

    def test_speedup_below_target_fails(self):
        measured = _service_measurement(speedup_vs_scratch=1.9)
        failures = check_bench.judge_service(measured, SERVICE, 1.0)
        assert len(failures) == 1 and failures[0].startswith("speedup")

    def test_a_uniformly_slower_machine_passes(self):
        measured = _service_measurement(
            queries_per_second=SERVICE["queries_per_second"] / 2
        )
        assert check_bench.judge_service(measured, SERVICE, 2.0) == []


class TestTraceJudge:
    PAIRS = {"a [compiled]": (0.40, 0.42), "b [streaming]": (0.01, 0.03)}

    def test_clean_pairs_pass(self):
        assert check_bench.judge_trace(self.PAIRS) == []

    def test_2x_slowdown_fails_on_the_traced_side(self):
        failures = check_bench.judge_trace(self.PAIRS, slowdown=2.0)
        # b doubles to 60 ms, only 50 ms over its untraced run: noise.
        assert len(failures) == 1 and failures[0].startswith("a [compiled]")


@pytest.fixture
def gates(monkeypatch, tmp_path):
    """The gates on a copy of the committed baseline, measuring nothing."""
    baseline = tmp_path / "baseline_smoke.json"
    shutil.copy(check_bench.BASELINE, baseline)
    monkeypatch.setattr(check_bench, "BASELINE", baseline)
    # The scaling entry's machine: the service entry's reads 1.33x slower.
    monkeypatch.setattr(check_bench, "calibrate", lambda: SCALING["calibration_seconds"])
    monkeypatch.setattr(check_bench, "measure_service", _service_measurement)
    monkeypatch.setattr(
        check_bench, "measure_scaling", lambda: _grid_order(SCALING["points"])
    )
    monkeypatch.setattr(
        check_bench, "measure_trace_overhead", lambda: dict(TestTraceJudge.PAIRS)
    )
    return baseline


class TestGates:
    @pytest.mark.parametrize(
        "flag", ["--scaling-curves", "--service-throughput", "--trace-overhead"]
    )
    def test_clean_passes_and_injected_2x_trips(self, gates, flag):
        assert check_bench.main([flag]) == 0
        assert check_bench.main([flag, "--inject-slowdown", "2"]) == 1

    def test_missing_entry_exits_2(self, gates):
        gates.write_text(json.dumps({"scaling_curves": SCALING}))
        assert check_bench.main(["--service-throughput"]) == 2

    def test_update_rewrites_one_entry_and_keeps_the_other(self, gates):
        before = gates.read_text()
        assert check_bench.main(["--service-throughput", "--update-baseline"]) == 0
        after = json.loads(gates.read_text())
        assert after["scaling_curves"] == SCALING
        assert after["service_throughput"]["calibration_seconds"] == (
            SCALING["calibration_seconds"]
        )
        scaling_block = json.dumps({"scaling_curves": SCALING}, indent=2)[2:-2]
        assert scaling_block in before and scaling_block in gates.read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--scaling-curves", "--trace-overhead"],
            ["--trace-overhead", "--update-baseline"],
        ],
    )
    def test_exactly_one_gate_with_a_baseline(self, gates, argv):
        with pytest.raises(SystemExit) as raised:
            check_bench.main(argv)
        assert raised.value.code == 2
