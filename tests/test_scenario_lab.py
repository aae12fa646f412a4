"""Scenario-lab suite: parametric generator properties, knob validation,
sweep smoke runs, and the reasoning-meets-ML workloads.

Four concerns, one lab:

* **generator properties** — >= 50 seeded knob combinations; every one must
  be warded (by analysis, not just by construction), its chase must
  terminate inside an explicit :class:`~repro.core.limits.ExecutionBudget`,
  and regenerating with the same seed must be *bit-identical* (program
  unparse text and database tuples);
* **knob validation** — invalid knob values raise ``ValueError`` naming the
  offending field, everywhere a config can be built (direct construction,
  ``parametric_config``, ``iwarded_scenario``'s override);
* **sweep smoke** — one smoke-scale axis runs under the answer-check and
  yields the curve-point schema ``tools/check_bench.py --scaling-curves``
  expects (the full-grid sweep is a nightly-marked test, not tier 1);
* **data-science workloads** — entity-resolution score fusion and
  label propagation produce identical answers on the memory, CSV and
  SQLite backends, write back non-empty ``@output`` relations, and report
  their planted EGD violations deterministically.
"""

import dataclasses
import itertools

import pytest

from repro.core.limits import ExecutionBudget
from repro.core.parser import unparse_program
from repro.core.wardedness import analyse_program
from repro.engine.reasoner import VadalogReasoner
from repro.workloads import (
    SCENARIO_CONFIGS,
    SWEEP_AXES,
    er_fusion_scenario,
    iwarded_scenario,
    label_propagation_scenario,
    parametric_config,
    parametric_scenario,
)
from repro.workloads.datascience import (
    BACKENDS,
    ER_OUTPUTS,
    LP_OUTPUTS,
    generate_er_database,
    generate_lp_database,
)
from repro.workloads.iwarded import IWardedConfig
from repro.workloads.sweep import (
    SWEEP_EXECUTORS,
    axis_by_name,
    grid_scenario,
    run_axis,
    run_sweep,
)

# ---------------------------------------------------------------------------
# Generator properties: >= 50 seeded knob combinations.
# ---------------------------------------------------------------------------

#: Compact rule mix so 50+ generated chases stay tier-1 fast.
_LAB_MIX = dict(
    linear_rules=6,
    join_rules=4,
    linear_recursive=3,
    join_recursive=1,
    existential_rules=3,
    harmless_join_with_ward=2,
    harmless_join_without_ward=1,
    harmful_joins=1,
)

#: 54 knob combinations: the full product of the small per-knob grids plus
#: a skewed band — every axis varies at least three times.
KNOB_COMBOS = [
    dict(recursion_depth=d, existential_density=e, arity=a, join_fanin=f, fact_skew=0.0)
    for d, e, a, f in itertools.product((1, 2, 3), (0.0, 0.5, 1.0), (2, 3), (2, 3))
] + [
    dict(recursion_depth=d, existential_density=0.25, arity=a, join_fanin=2, fact_skew=k)
    for d, a, k in itertools.product((1, 2, 3), (2, 4), (0.75, 1.5, 3.0))
]

assert len(KNOB_COMBOS) >= 50


def _combo_id(combo):
    return (
        f"d{combo['recursion_depth']}-e{combo['existential_density']}"
        f"-a{combo['arity']}-f{combo['join_fanin']}-k{combo['fact_skew']}"
    )


def _lab_config(combo, index, seed=None):
    return parametric_config(
        base=IWardedConfig(name="lab", **_LAB_MIX),
        facts_per_predicate=3,
        seed=seed if seed is not None else 1000 + index * 17,
        **combo,
    )


@pytest.mark.parametrize(
    "index,combo",
    list(enumerate(KNOB_COMBOS)),
    ids=[_combo_id(c) for c in KNOB_COMBOS],
)
def test_knob_combo_properties(index, combo):
    """Warded, chase terminates within budget, same-seed bit-identical."""
    config = _lab_config(combo, index)
    scenario = parametric_scenario(config)

    analysis = analyse_program(scenario.program)
    assert analysis.is_warded, f"{config.name}: generator emitted non-warded program"

    budget = ExecutionBudget(max_rounds=60, max_derived_facts=50_000)
    result = VadalogReasoner(scenario.program.copy()).reason(
        database=scenario.database, outputs=scenario.outputs, budget=budget
    )
    assert result.status == "complete", (
        f"{config.name}: chase did not terminate within budget "
        f"(status={result.status})"
    )

    # Same seed -> bit-identical program text and database.
    again = parametric_scenario(_lab_config(combo, index))
    assert unparse_program(again.program) == unparse_program(scenario.program)
    assert {
        name: sorted(again.database.relation(name).tuples, key=repr)
        for name in again.database.relations()
    } == {
        name: sorted(scenario.database.relation(name).tuples, key=repr)
        for name in scenario.database.relations()
    }

    # A different seed must not be forced to coincide (sanity: the seed is
    # actually threaded through to the RNG, not ignored).
    other = parametric_scenario(_lab_config(combo, index, seed=999_001 + index))
    assert other.name != scenario.name


# ---------------------------------------------------------------------------
# Knob validation: ValueError naming the offending field, everywhere.
# ---------------------------------------------------------------------------


class TestKnobValidation:
    @pytest.mark.parametrize(
        "knobs,field",
        [
            (dict(arity=1), "arity"),
            (dict(arity=2.5), "arity"),
            (dict(recursion_depth=0), "recursion_depth"),
            (dict(recursion_depth=-3), "recursion_depth"),
            (dict(existential_density=1.5), "existential_density"),
            (dict(existential_density=-0.1), "existential_density"),
            (dict(join_fanin=1), "join_fanin"),
            (dict(join_fanin="wide"), "join_fanin"),
            (dict(fact_skew=-0.5), "fact_skew"),
            (dict(facts_per_predicate=0), "facts_per_predicate"),
            (dict(facts_per_predicate=-1), "facts_per_predicate"),
        ],
    )
    def test_invalid_knob_raises_with_field_name(self, knobs, field):
        with pytest.raises(ValueError, match=field):
            parametric_config(**knobs)

    def test_invalid_rule_counts_raise(self):
        with pytest.raises(ValueError, match="linear_rules"):
            IWardedConfig(name="bad", **{**_LAB_MIX, "linear_rules": -1})
        with pytest.raises(ValueError, match="harmful_joins"):
            IWardedConfig(name="bad", **{**_LAB_MIX, "harmful_joins": -2})

    def test_none_density_means_absolute_budget(self):
        config = parametric_config(existential_density=None)
        assert config.existential_density is None

    def test_parametric_scenario_rejects_config_plus_knobs(self):
        config = parametric_config(arity=3)
        with pytest.raises(ValueError, match="not both"):
            parametric_scenario(config, arity=3)

    def test_iwarded_scenario_unknown_name(self):
        with pytest.raises(KeyError, match="unknown iWarded scenario"):
            iwarded_scenario("synthZ")

    def test_iwarded_scenario_facts_override_via_replace(self):
        """The override goes through dataclasses.replace: the shared frozen
        config is untouched and the override is validated."""
        before = dataclasses.replace(SCENARIO_CONFIGS["synthA"])
        small = iwarded_scenario("synthA", facts_per_predicate=3)
        large = iwarded_scenario("synthA", facts_per_predicate=8)
        assert SCENARIO_CONFIGS["synthA"] == before  # no mutation leaked
        assert small.params["facts_per_predicate"] == 3
        assert large.params["facts_per_predicate"] == 8
        assert len(large.database) > len(small.database)

    def test_iwarded_scenario_invalid_override_raises(self):
        with pytest.raises(ValueError, match="facts_per_predicate"):
            iwarded_scenario("synthA", facts_per_predicate=0)


# ---------------------------------------------------------------------------
# Sweep smoke: one axis under the answer-check, tier-1 sized.
# ---------------------------------------------------------------------------


class TestSweepSmoke:
    def test_axis_registry(self):
        assert {axis.name for axis in SWEEP_AXES} == {
            "recursion-depth",
            "existential-density",
            "arity",
            "join-fanin",
            "fact-size",
        }
        for axis in SWEEP_AXES:
            assert len(axis.values(smoke=True)) >= 4
            assert len(axis.values(smoke=False)) >= 4
        with pytest.raises(ValueError, match="unknown sweep axis"):
            axis_by_name("tensor-rank")

    def test_grid_scenario_applies_knob(self):
        axis = axis_by_name("arity")
        scenario = grid_scenario(axis, 4, smoke=True)
        assert scenario.params["arity"] == 4

    def test_one_axis_smoke_run_answer_checked(self):
        axis = axis_by_name("recursion-depth")
        points = run_axis(axis, ("compiled",), smoke=True)
        assert len(points) == len(axis.smoke)
        for point in points:
            assert point["answer_checked"] is True
            assert point["executor"] == "compiled"
            for key in (
                "elapsed_seconds",
                "derived_facts",
                "peak_resident_facts",
                "rounds",
                "answers",
            ):
                assert key in point, f"curve point missing {key}"
        # Deeper recursion derives at least as much on this axis.
        derived = [p["derived_facts"] for p in points]
        assert derived == sorted(derived)


@pytest.mark.nightly
def test_full_sweep_structure():
    """Nightly-scale: the full grid on the sweep executors, every point
    answer-checked (``run_sweep`` raises on a mismatch).  The smoke grid is
    gated on every push by ``tools/check_bench.py --scaling-curves``."""
    section = run_sweep(smoke=False)
    assert section["mode"] == "full"
    assert set(section["axes"]) == {axis.name for axis in SWEEP_AXES}
    for axis in SWEEP_AXES:
        points = section["axes"][axis.name]["points"]
        assert len(points) == len(axis.full) * len(SWEEP_EXECUTORS)
        assert all(point["answer_checked"] for point in points)


# ---------------------------------------------------------------------------
# Data-science workloads: backends agree, writeback lands, EGDs fire.
# ---------------------------------------------------------------------------


def _answers(result, outputs):
    signature = {}
    for predicate in outputs:
        facts = result.answers.facts_by_predicate.get(predicate, [])
        signature[predicate] = frozenset(f for f in facts if not f.has_nulls)
    return signature


def _run_scenario(scenario):
    reasoner = VadalogReasoner(scenario.program.copy(), base_path=scenario.base_path)
    return reasoner.reason(database=scenario.database, outputs=scenario.outputs)


class TestDataScienceWorkloads:
    @pytest.mark.parametrize(
        "factory,outputs",
        [(er_fusion_scenario, ER_OUTPUTS), (label_propagation_scenario, LP_OUTPUTS)],
        ids=["er-fusion", "label-prop"],
    )
    def test_memory_scenario_properties(self, factory, outputs):
        scenario = factory()
        assert analyse_program(scenario.program).is_warded
        result = _run_scenario(scenario)
        answers = _answers(result, outputs)
        for predicate in outputs:
            assert answers[predicate], f"{predicate}: no certain answers"
        # The generators plant exactly one EGD conflict each (a record
        # registered under two sources / an ambiguous seed label).
        assert len(result.chase.violations) == 2

    @pytest.mark.parametrize(
        "factory,outputs",
        [(er_fusion_scenario, ER_OUTPUTS), (label_propagation_scenario, LP_OUTPUTS)],
        ids=["er-fusion", "label-prop"],
    )
    def test_backends_agree_and_write_back(self, factory, outputs, tmp_path):
        reference = _answers(_run_scenario(factory()), outputs)
        for backend in ("csv", "sqlite"):
            scenario = factory(backend=backend, data_dir=tmp_path / backend)
            result = _run_scenario(scenario)
            assert _answers(result, outputs) == reference, (
                f"{backend}: answers differ from the memory backend"
            )
            for predicate in outputs:
                stats = result.source_stats[predicate]
                assert stats["direction"] == "output"
                assert stats["rows_written"] > 0, f"{predicate}: empty writeback"

    def test_unknown_backend_raises(self, tmp_path):
        with pytest.raises(ValueError, match="backend"):
            er_fusion_scenario(backend="parquet", data_dir=tmp_path)
        assert set(BACKENDS) == {"memory", "csv", "sqlite"}

    def test_er_generator_deterministic(self):
        first = generate_er_database(seed=11)
        second = generate_er_database(seed=11)
        shifted = generate_er_database(seed=12)
        as_dict = lambda db: {  # noqa: E731
            name: sorted(db.relation(name).tuples, key=repr)
            for name in db.relations()
        }
        assert as_dict(first) == as_dict(second)
        assert as_dict(first) != as_dict(shifted)

    def test_lp_generator_deterministic(self):
        first = generate_lp_database(seed=19)
        second = generate_lp_database(seed=19)
        as_dict = lambda db: {  # noqa: E731
            name: sorted(db.relation(name).tuples, key=repr)
            for name in db.relations()
        }
        assert as_dict(first) == as_dict(second)
