"""The cost ledger (``tools/cost_ledger.py``) counts calls deterministically.

Two runs of every benchmark workload, on inputs built by
``e2ebench/inputs.py`` at a tenth of the benchmark's scale, must report the
same total calls, the same calls per function and the same chase counters,
and their traced memory must agree to within 0.1 %: a ledger that moves by
itself could not tell a change from noise.  ``compare`` fails on a total
up by more than 1 % or a moved counter, unless the run names the move.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ledger():
    spec = importlib.util.spec_from_file_location("cost_ledger", ROOT / "tools" / "cost_ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_count_the_same_calls():
    ledger = _ledger()
    workloads = list(ledger.inputs.WORKLOADS)
    first, second = (ledger.measure(workloads, 11, 0.1, ROOT / "src") for _ in range(2))
    assert sorted(first) == sorted(workloads)
    for workload in workloads:
        assert first[workload]["failed"] == 0
        assert first[workload]["reason"]["total"] > 0 and first[workload]["counters"]
        # The traced memory repeats to within 0.1 %: between processes the
        # peak moves by a few hundred bytes, the live blocks by one or two
        # on the service workload.
        memory = [run[workload].pop("memory") for run in (first, second)]
        for key in ("peak_bytes", "live_blocks"):
            assert abs(memory[0][key] - memory[1][key]) <= memory[0][key] / 1000, key
    assert first == second
    lines = ledger.compare(first, second, top=5)
    assert len(lines) == 2 * len(workloads)
    assert all(line.endswith("(+0.0%)") for line in lines)
    assert ledger.violations(first, second) == []


def _report(reason=1000, setup=100, admitted=5):
    phase = lambda total: {"total": total, "functions": {"f": total}}  # noqa: E731
    return {
        "w": {
            "setup": phase(setup),
            "reason": phase(reason),
            "counters": {"strategy_admitted": admitted},
            "memory": {"peak_bytes": 2048, "live_blocks": 10},
        }
    }


def test_compare_fails_on_a_rise_or_a_moved_counter(tmp_path):
    ledger = _ledger()
    base = _report()
    assert ledger.violations(base, _report(reason=1010, setup=90)) == []
    assert ledger.violations(base, _report(reason=1011)) == ["w reason total 1000 -> 1011 (+1.1%)"]
    assert ledger.violations(base, _report(setup=102)) == ["w setup total 100 -> 102 (+2.0%)"]
    assert ledger.violations(base, _report(admitted=4)) == ["w counter strategy_admitted 5 -> 4"]
    moved = _report(reason=2000, admitted=6)
    assert ledger.violations(base, moved, ["reason", "counter:strategy_admitted@w"]) == []
    assert len(ledger.violations(base, moved, ["reason@other"])) == 2
    assert "  memory: peak 2048 -> 2048 bytes (+0.0%), live blocks 10 -> 10 (+0.0%)" in (
        ledger.compare(base, moved)
    )

    paths = []
    for name, report in (("base", base), ("head", moved)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(report))
    command = [sys.executable, str(ROOT / "tools" / "cost_ledger.py"), "compare", *map(str, paths)]
    failing = subprocess.run(command, capture_output=True, text=True)
    assert failing.returncode == 1 and "FAIL w reason total" in failing.stdout
    expected = ["--expect", "reason", "--expect", "counter:strategy_admitted"]
    assert subprocess.run(command + expected, capture_output=True).returncode == 0
