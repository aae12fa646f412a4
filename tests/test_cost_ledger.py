"""The cost ledger (``tools/cost_ledger.py``) counts calls deterministically.

Two runs of every benchmark workload, on inputs built by
``e2ebench/inputs.py`` at a tenth of the benchmark's scale, must report the
same total calls, the same calls per function and the same chase counters:
a ledger that moves by itself could not tell a change from noise.
"""

import importlib.util
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
    assert first == second
    lines = ledger.compare(first, second, top=5)
    assert len(lines) == 2 * len(workloads)
    assert all(line.endswith("(+0.0%)") for line in lines)
