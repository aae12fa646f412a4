"""Tests for the workload generators, run end to end on the reasoner."""

import pytest

from repro.baselines.sql_recursion import RecursiveSqlEngine
from repro.core.limits import STATUS_COMPLETE
from repro.core.termination import TrivialIsomorphismStrategy
from repro.core.wardedness import analyse_program
from repro.engine.reasoner import VadalogReasoner
from repro.workloads import (
    SCENARIO_CONFIGS,
    ScaleFreeConfig,
    allpsc_scenario,
    arity_scenario,
    atom_count_scenario,
    control_scenario,
    dbsize_scenario,
    doctors_fd_scenario,
    doctors_scenario,
    generate_company_graph,
    generate_ownership_graph,
    ibench_scenario,
    iwarded_scenario,
    lubm_scenario,
    psc_scenario,
    rule_count_scenario,
    strong_links_scenario,
)


def _reason(scenario, strategy="warded"):
    """Run ``scenario`` to completion: a budget stop is not a result."""
    reasoner = VadalogReasoner(scenario.program.copy(), strategy=strategy)
    result = reasoner.reason(database=scenario.database, outputs=scenario.outputs)
    assert result.status == STATUS_COMPLETE, result.stop_reason
    return result


def _output_facts(scenario, strategy="warded"):
    result = _reason(scenario, strategy)
    return sum(len(result.answers.facts(p)) for p in scenario.outputs)


class TestIWarded:
    def test_all_figure6_configs_present(self):
        assert set(SCENARIO_CONFIGS) == {
            "synthA",
            "synthB",
            "synthC",
            "synthD",
            "synthE",
            "synthF",
            "synthG",
            "synthH",
        }
        assert all(c.total_rules == 100 for c in SCENARIO_CONFIGS.values())

    def test_generated_programs_are_warded(self):
        for name in ("synthA", "synthB", "synthG"):
            scenario = iwarded_scenario(name, facts_per_predicate=5)
            assert analyse_program(scenario.program).is_warded
            assert len(scenario.program.rules) == 100

    def test_rule_mix_reflects_config(self):
        scenario = iwarded_scenario("synthB", facts_per_predicate=5)
        summary = analyse_program(scenario.program).summary()
        assert summary["join_rules"] > summary["linear_rules"]
        scenario_a = iwarded_scenario("synthA", facts_per_predicate=5)
        summary_a = analyse_program(scenario_a.program).summary()
        assert summary_a["linear_rules"] > summary_a["join_rules"]

    def test_generation_is_deterministic(self):
        first = iwarded_scenario("synthC", facts_per_predicate=5)
        second = iwarded_scenario("synthC", facts_per_predicate=5)
        assert str(first.program) == str(second.program)
        assert len(first.database) == len(second.database)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            iwarded_scenario("synthZ")


class TestDbpedia:
    def test_company_graph_shape(self):
        database = generate_company_graph(50, 40, seed=3)
        assert database.size("Company") == 50
        assert database.size("Person") == 40
        assert database.size("Control") >= 45
        assert database.size("KeyPerson") > 0

    def test_psc_scenario_runs(self):
        assert _output_facts(psc_scenario(n_companies=40, n_persons=30)) > 0

    def test_allpsc_matches_psc_companies(self):
        psc = _output_facts(psc_scenario(n_companies=30, n_persons=20))
        allpsc = _output_facts(allpsc_scenario(n_companies=30, n_persons=20))
        assert 0 < allpsc <= psc

    def test_strong_links_threshold_monotone(self):
        lenient = _output_facts(
            strong_links_scenario(n_companies=25, n_persons=15, threshold=1)
        )
        strict = _output_facts(
            strong_links_scenario(n_companies=25, n_persons=15, threshold=3)
        )
        assert strict <= lenient


class TestCompanies:
    def test_scale_free_parameters_validated(self):
        with pytest.raises(ValueError):
            ScaleFreeConfig(alpha=0.5, beta=0.1, gamma=0.1)

    def test_ownership_graph_size(self):
        database = generate_ownership_graph(60)
        assert database.size("Company") >= 55
        assert database.size("Own") > 0

    def test_control_scenario_all_and_query(self):
        assert _output_facts(control_scenario(40, variant="all")) > 0
        query_scenario = control_scenario(40, variant="query", query_pairs=5)
        assert len(query_scenario.params["pairs"]) == 5

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            control_scenario(10, variant="some")


class TestIbenchAndChasebench:
    def test_ibench_scenarios_are_warded(self):
        for name in ("STB-128", "ONT-256"):
            scenario = ibench_scenario(name, source_facts=5)
            analysis = analyse_program(scenario.program)
            assert analysis.is_warded
            assert analysis.summary()["existential_rules"] > 0

    def test_ont_larger_than_stb(self):
        stb = ibench_scenario("STB-128", source_facts=5)
        ont = ibench_scenario("ONT-256", source_facts=5)
        assert len(ont.program.rules) > len(stb.program.rules)

    def test_doctors_runs_and_has_outputs(self):
        assert _output_facts(doctors_scenario(100)) > 0

    def test_doctors_fd_has_egds(self):
        scenario = doctors_fd_scenario(100)
        assert len(scenario.program.egds) == 2

    def test_lubm_hierarchy_inference(self):
        assert _output_facts(lubm_scenario(200)) > 0


class TestScalingScenarios:
    def test_dbsize_grows(self):
        small = dbsize_scenario(5)
        large = dbsize_scenario(15)
        assert len(large.database) > len(small.database)

    def test_rule_count_blocks_independent(self):
        scenario = rule_count_scenario(2, facts_per_predicate=5)
        assert len(scenario.program.rules) == 200
        prefixes = {r.label.split("_")[0] for r in scenario.program.rules}
        assert prefixes == {"B0", "B1"}

    def test_atom_count_widens_join_rules(self):
        scenario = atom_count_scenario(4, facts_per_predicate=5)
        widened = [r for r in scenario.program.rules if len(r.relational_body) >= 3]
        assert widened
        assert "Pad" in scenario.database.relations()

    def test_arity_padding(self):
        scenario = arity_scenario(6, facts_per_predicate=5)
        some_relation = scenario.database.relations()[0]
        row = scenario.database.relation(some_relation).tuples[0]
        assert len(row) == 6

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            arity_scenario(1)
        with pytest.raises(ValueError):
            atom_count_scenario(1)


class TestHarness:
    """The reasoner against a baseline engine and an ablated strategy."""

    def test_vadalog_and_sql_agree_on_psc(self):
        scenario = psc_scenario(n_companies=25, n_persons=15)
        vadalog = _reason(scenario)
        sql = RecursiveSqlEngine(scenario.program.copy()).run(scenario.database.facts())
        for predicate in scenario.outputs:
            assert sql.ground_tuples(predicate) == vadalog.ground_tuples(predicate)

    def test_trivial_strategy_row(self):
        """The Section 6.6 ablation: the trivial global isomorphism check
        gives the warded strategy's answers."""
        scenario = psc_scenario(n_companies=15, n_persons=10)
        trivial = _reason(scenario, strategy="trivial-isomorphism")
        warded = _reason(scenario)
        assert isinstance(trivial.chase.strategy, TrivialIsomorphismStrategy)
        assert trivial.chase.strategy.stats.admitted > 0
        for predicate in scenario.outputs:
            assert trivial.ground_tuples(predicate) == warded.ground_tuples(predicate)
