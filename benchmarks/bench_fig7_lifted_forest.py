"""Figure 7: Algorithm 1 (lifted linear forest) vs the trivial isomorphism check.

The ablation of Section 6.6: the same AllPSC-style scenario is run with the
full warded termination strategy and with the "trivial technique" that stores
every generated fact and checks isomorphism globally.  Paper expectation
(shape): the two coincide on small inputs and diverge as the instance grows,
with the trivial technique storing many more facts / performing more
expensive bookkeeping.

The ``stored_facts`` and ``isomorphism_checks`` columns count null-bearing
facts only: both strategies admit a ground fact without an isomorphism key,
because the chase asks them only about facts the store found new, and a
ground fact is its own isomorphism class.
"""

import pytest

from repro.bench.harness import run_scenario
from repro.bench.reporting import format_table, rows_as_dicts
from repro.workloads.dbpedia import allpsc_scenario

PERSON_SWEEP = (50, 100, 200, 400)
COMPANIES = 150

_rows = []


@pytest.mark.figure("7")
@pytest.mark.parametrize("persons", PERSON_SWEEP)
@pytest.mark.parametrize("engine", ["vadalog", "vadalog-trivial"])
def test_allpsc_strategies(persons, engine, once):
    scenario = allpsc_scenario(n_companies=COMPANIES, n_persons=persons)
    row = once(run_scenario, scenario, engine)
    _rows.append(row)
    assert row.output_facts > 0


@pytest.mark.figure("7")
def test_report_figure_7(once):
    once(lambda: None)
    print()
    print(
        format_table(
            rows_as_dicts(_rows),
            columns=[
                "engine",
                "persons",
                "elapsed_seconds",
                "total_facts",
                "isomorphism_checks",
                "stored_facts",
            ],
            title="Figure 7 — warded strategy vs trivial isomorphism check (AllPSC)",
        )
    )
    # Both strategies must compute the same number of output facts per size.
    by_size = {}
    for row in _rows:
        by_size.setdefault(row.params["persons"], {})[row.engine] = row.output_facts
    for size, engines in by_size.items():
        assert engines["vadalog"] == engines["vadalog-trivial"], size
    assert len(_rows) == 2 * len(PERSON_SWEEP)
