"""The benchmark's own checks, at a tiny scale.

Run explicitly (tier-1 collects ``tests/`` only)::

    python3 -m pytest e2ebench/test_e2e_bench.py -q
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402

tiny = functools.partial(run.measure, seed=11, seconds=0, scale=0.1)


@pytest.fixture(scope="module")
def reports():
    """One untraced and one traced repetition of every workload."""
    return {
        workload: (tiny(workload, min_reps=1), tiny(workload, trace=True, min_reps=2))
        for workload in inputs.WORKLOADS
    }


def test_names_match_benchmark_json(reports, capsys):
    spec = run.SPEC
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, why) for name, (_executor, why) in inputs.WORKLOADS.items()
    ]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for workload, (untraced, traced) in reports.items():
        assert untraced["failed"] == 0 and not untraced["problems"], untraced["problems"]
        assert traced["failed"] == 0 and not traced["problems"], traced["problems"]
        assert list(json.loads(run.contract_line(untraced))["metrics"]) == end_to_end
        assert list(json.loads(run.contract_line(traced))["metrics"]) == per_layer
        assert set(untraced["metrics"]) - set(end_to_end) <= set(run.EXTRAS)
        run.print_report(untraced)
        printed = capsys.readouterr().out
        for metric in spec["end_to_end"]:
            assert f"{metric['name']} " in printed and f" {metric['unit']} " in printed
        assert "failed_share" in printed


def test_ledger_adds_up_to_the_traced_wall(reports):
    for workload, (_untraced, traced) in reports.items():
        shares = traced["ledger"]["layer_share"]
        assert "unattributed" in shares
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.01), workload
        assert traced["ledger"]["absent"] == []


def test_planted_wrong_answer_fails_the_run(monkeypatch):
    monkeypatch.setattr(run.reference, "company_control", lambda own: {("f0", "f1")})
    report = tiny("control.sqlite", min_reps=1)
    assert report["failed"] == report["attempted"] == 1
    assert report["failed_share"] == 1.0 and report["problems"]
    monkeypatch.setattr(run, "measure", functools.partial(run.measure, scale=0.1, min_reps=1))
    argv = ["--workload", "control.sqlite", "--seconds", "0", "--trace", "0"]
    assert run.main(argv) != 0


def test_deleted_boundary_is_absent_not_a_crash():
    code = f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
import tracing
tracing.BOUNDARIES += (
    ("core.gone", "deleted_function", "repro.core.chase", "ChaseEngine.no_such_method", "call"),
    ("engine.gone", "deleted_module", "repro.engine.no_such_module", "function", "call"),
)
from repro import VadalogReasoner
tracer = tracing.Tracer("test")
tracer.install()
with tracer.root("reason"):
    result = VadalogReasoner('@output("T"). T(X, Y) :- R(X, Y).').reason(database={{"R": [(1, 2)]}})
assert result.ground_tuples("T") == {{(1, 2)}}
print(json.dumps(tracer.ledger()))
"""
    env = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    ledger = json.loads(done.stdout.splitlines()[-1])
    assert ledger["absent"] == ["deleted_function", "deleted_module"]
    assert ledger["boundaries"]["chase_run"]["calls"] == 1


def test_same_seed_same_inputs(tmp_path):
    for workload in inputs.WORKLOADS:
        first = inputs.build(workload, 11, tmp_path / "a" / workload)
        again = inputs.build(workload, 11, tmp_path / "b" / workload)
        other = inputs.build(workload, 12, tmp_path / "c" / workload)
        assert first == again
        assert other["data_sha256"] != first["data_sha256"]
        assert other["program_sha256"] == first["program_sha256"]
        pins = run.EXPECTED["seeds"]["11"][workload]
        assert run.input_drift(first, pins) == [], "expected.json no longer matches the generators"


def test_compare_flags_a_regression(tmp_path, capsys):
    metric = {"median": 1.0, "q1": 0.99, "q3": 1.01, "n": 5, "unit": "s"}
    side = {"failed_share": 0.0, "metrics": {"reason_s": metric, "setup_s": metric}}
    worse = {"failed_share": 0.0, "metrics": {"reason_s": dict(metric, median=1.5), "setup_s": metric}}
    noisy = {"failed_share": 0.0, "metrics": {"reason_s": dict(metric, q3=1.6), "setup_s": metric}}
    for name, report in (("a", side), ("b", worse), ("c", noisy)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"untraced": {"w": report}}))
    assert run.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    assert run.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert "worse" in capsys.readouterr().out
    assert run.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "c.json")]) == 0
    assert "unresolved" in capsys.readouterr().out
