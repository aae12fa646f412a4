"""Construction pays once per distinct piece of work.

The logic optimizer mirrors each tracking rule once, the optimized
program's analysis reuses the input analysis for every rule the rewritings
passed through, and one join plan is compiled per rule shape.  These tests
pin that the shortcuts give exactly what the from-scratch computations give,
and that duplicate removal drops only renamings of a kept rule.
"""

import dataclasses
import hashlib
import itertools
import os
import re
import subprocess
import sys
from typing import Dict, List, Set

import pytest

from differential_harness import SCENARIOS
from repro import VadalogReasoner
from repro.core import transform
from repro.core.atoms import Position
from repro.core.harmful_joins import HarmfulJoinEliminator, eliminate_harmful_joins
from repro.core.parser import parse_program
from repro.core.rules import DOM_PREDICATE, Program, Rule, rule_shape
from repro.core.terms import Variable
from repro.core.transform import remove_duplicate_rules
from repro.core.wardedness import affected_positions, analyse_program
from repro.engine import plan as plan_module
from repro.engine.joins import kernel_values
from repro.engine.plan import RuleJoinPlan, compile_rule_join_plan
from repro.engine.reasoner import optimize_program
from repro.testing.fuzz import N_CASES, generate_case, grid_indices
from repro.workloads import SCENARIO_CONFIGS, generate_iwarded

_LABEL = re.compile(r"^\[[^\]]*\]\s*")
_PREDICATE = re.compile(r"\b([A-Za-z_]\w*)\(")
_TOKEN = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"|\w+|\S")


def renamed_synthb_copies(copies: int = 3) -> str:
    """``copies`` copies of synthB (seed 11), each with its predicates
    prefixed ``B<i>_``: independent blocks, so only the rule count grows."""
    program, _ = generate_iwarded(dataclasses.replace(SCENARIO_CONFIGS["synthB"], seed=11))
    lines: List[str] = []
    for block in range(copies):
        prefix = f"B{block}_"
        lines += [f'@output("{prefix}{name}").' for name in sorted(program.outputs)]
        lines += [
            _PREDICATE.sub(rf"{prefix}\1(", _LABEL.sub("", str(rule)))
            for rule in program.rules
        ]
    return "\n".join(lines) + "\n"


def optimized_rules_digest() -> str:
    """sha256 of the optimized, scheduled program of the three copies."""
    reasoner = VadalogReasoner(renamed_synthb_copies())
    text = "\n".join(str(rule) for rule in reasoner.program.rules)
    return f"{len(reasoner.program.rules)} {hashlib.sha256(text.encode()).hexdigest()}"


def corpus() -> Dict[str, Program]:
    """The 20 registry scenarios and the 120-case fuzz corpus."""
    programs = {name: SCENARIOS[name]().program.copy() for name in sorted(SCENARIOS)}
    for index in [*range(N_CASES), *grid_indices()]:
        programs[f"fuzz-{index}"] = generate_case(index).program
    return programs


@pytest.fixture(scope="module")
def reasoners():
    return {name: VadalogReasoner(program) for name, program in corpus().items()}


def test_optimized_program_is_pinned():
    # Digest of ``[str(r) for r in reasoner.program.rules]`` recorded before
    # the rewriting built each tracking rule once.  Harmful-join elimination
    # iterates sets, so it is only reproducible under a fixed hash seed: run
    # in a PYTHONHASHSEED=0 child.
    pinned = "966 9d9fc866929790562c420f4fb28c5c19c193311db26cdd91fe90bf9f04a5a6b2"
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [tests_dir, os.path.join(tests_dir, os.pardir, "src"), env.get("PYTHONPATH", "")]
    )
    child = subprocess.run(
        [sys.executable, "-c", "import test_construction as t; print(t.optimized_rules_digest())"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert child.stdout.strip() == pinned


def test_each_propagation_step_is_mirrored_once_per_cause(monkeypatch):
    calls: List[tuple] = []
    original = HarmfulJoinEliminator._mirror_propagation

    def counting(self, cause, step):
        calls.append((id(cause), id(step)))
        return original(self, cause, step)

    monkeypatch.setattr(HarmfulJoinEliminator, "_mirror_propagation", counting)
    program = parse_program(renamed_synthb_copies(copies=1))
    result = eliminate_harmful_joins(program)
    assert result.changed and calls
    assert len(calls) == len(set(calls))
    track_rules = [r for r in result.program.rules if r.head[0].predicate.startswith("_track_")]
    assert len({str(r) for r in track_rules}) == len(track_rules)


def _reference_affected(program: Program) -> Set[Position]:
    """The textbook fixpoint: rescan every rule until nothing changes."""
    affected = {
        Position(atom.predicate, index)
        for rule in program.rules
        for atom in rule.head
        for index, term in enumerate(atom.terms)
        if term in rule.existential_variables()
    }
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            for variable in rule.body_variables():
                positions = [
                    Position(atom.predicate, index)
                    for atom in rule.body
                    if atom.predicate != DOM_PREDICATE
                    for index, term in enumerate(atom.terms)
                    if term == variable
                ]
                if not positions or not all(p in affected for p in positions):
                    continue
                for atom in rule.head:
                    for index, term in enumerate(atom.terms):
                        position = Position(atom.predicate, index)
                        if term == variable and position not in affected:
                            affected.add(position)
                            changed = True
    return affected


def test_affected_positions_match_the_textbook_fixpoint(reasoners):
    for name, reasoner in reasoners.items():
        for program in (reasoner.original_program, reasoner.program):
            assert affected_positions(program) == _reference_affected(program), name


def test_reused_analysis_equals_a_fresh_one(reasoners):
    for name, reasoner in reasoners.items():
        fresh = analyse_program(reasoner.program)
        assert reasoner.analysis.affected == fresh.affected, name
        # The analysis predates the scheduler's reordering: match by rule.
        assert len(reasoner.analysis.rule_analyses) == len(fresh.rule_analyses), name
        for expected in fresh.rule_analyses:
            kept = reasoner.analysis.analysis_for(expected.rule)
            assert kept.rule is expected.rule, name
            assert kept.roles == expected.roles, (name, str(kept.rule))
            assert kept.ward == expected.ward, (name, str(kept.rule))
            assert kept.kind is expected.kind, (name, str(kept.rule))
            assert kept.is_warded == expected.is_warded, (name, str(kept.rule))
            assert kept.harmful_join_variables == expected.harmful_join_variables, name


def test_rules_passed_through_keep_their_analysis():
    program = parse_program(renamed_synthb_copies(copies=1))
    input_analysis = analyse_program(program)
    optimized = VadalogReasoner(program).program
    reused = analyse_program(optimized, input_analysis)
    inputs = {id(a.rule): a for a in input_analysis.rule_analyses}
    taken_over = [a for a in reused.rule_analyses if inputs.get(id(a.rule)) is a]
    assert 0 < len(taken_over) < len(optimized.rules)


def test_an_affected_status_change_reanalyses_the_rule():
    # Both rules pass through unchanged, but once ``P[1]`` is affected (a new
    # existential rule) the join on ``Y`` becomes harmful.
    before = parse_program("Q(X, Y) :- P(X, Y).\nR(X) :- Q(X, Y), P(W, Y).")
    after = before.copy()
    after.rules = list(before.rules) + parse_program("P(X, Z) :- T(X).").rules
    stale = analyse_program(before)
    reused = analyse_program(after, stale)
    fresh = analyse_program(after)
    for kept, expected in zip(reused.rule_analyses, fresh.rule_analyses):
        assert kept.roles == expected.roles
        assert kept.harmful_join_variables == expected.harmful_join_variables
    assert stale.rule_analyses[1].harmful_join_variables == ()
    assert reused.rule_analyses[1].harmful_join_variables == (Variable("Y"),)


def test_shape_bound_plans_equal_compiled_plans(reasoners):
    for name, reasoner in reasoners.items():
        for rule in reasoner.program.rules:
            bound = reasoner.join_plans[id(rule)]
            compiled = compile_rule_join_plan(rule)
            for field in dataclasses.fields(RuleJoinPlan):
                assert getattr(bound, field.name) == getattr(compiled, field.name), (
                    name, str(rule), field.name,
                )
            assert kernel_values(bound) == kernel_values(compiled), (name, str(rule))


def test_one_plan_is_compiled_per_shape(monkeypatch):
    compiled: List[str] = []
    original = plan_module.compile_rule_join_plan

    def counting(rule):
        compiled.append(str(rule))
        return original(rule)

    monkeypatch.setattr(plan_module, "compile_rule_join_plan", counting)
    program = VadalogReasoner(renamed_synthb_copies(copies=1), executor="naive").program
    plans = plan_module.compile_join_plans(program)
    assert len(plans) == len(program.rules)
    assert 0 < len(compiled) < len(program.rules) // 10


def test_shapes_bind_values_and_separate_structure():
    # Same shape, other predicates, constants and head constants: bound.
    # Same atoms, but the computed variable makes ``Z`` existential in one
    # rule and not in the other, and a condition over a slot variable and
    # one over a Dom-only variable: separate shapes.
    program = parse_program(
        """
        P(X, "k") :- Q(X, "a"), S(X, Y).
        T(U, "m") :- V(U, "b"), W(U, Z).
        P(X, Z) :- Q(X), Z = X + 1.
        P(X, Z) :- Q(X), W = X + 1.
        R(X) :- S(X), Dom(Y), X > 1.
        R(X) :- S(X), Dom(Y), Y > 1.
        """
    )
    plans = plan_module.compile_join_plans(program)
    for rule in program.rules:
        assert plans[id(rule)] == compile_rule_join_plan(rule), str(rule)
    shapes = {rule_shape(rule)[0] for rule in program.rules}
    assert len(shapes) == len(program.rules) - 1


def test_duplicate_removal_keeps_its_equivalence():
    # The rule-wide key merges the same rules on the benchmark-sized
    # program as the per-atom key it replaced.
    program = parse_program(renamed_synthb_copies())
    rewritten = eliminate_harmful_joins(program).program
    assert (len(rewritten.rules), len(remove_duplicate_rules(rewritten).rules)) == (1110, 966)


def test_edb_predicates_are_the_body_and_fact_predicates_no_head_defines():
    for name, program in corpus().items():
        every = {p.name for p in program.predicates()}
        expected = every - program.idb_predicates() - {DOM_PREDICATE}
        assert program.edb_predicates() == expected, name


def _renamable(rule: Rule):
    """The rule's text as tokens (quoted constants whole, label dropped) and
    the indexes of its variable tokens (a name followed by ``(`` is a
    predicate or a function)."""
    names = {v.name for v in (*rule.body_variables(), *rule.head_variables())}
    names.update(v.name for v in rule.computed_variables())
    for item in (*rule.conditions, *rule.assignments, *filter(None, [rule.aggregate])):
        names.update(v.name for v in item.variables())
    tokens = _TOKEN.findall(str(rule.with_label("")))
    where = tuple(
        i for i, t in enumerate(tokens) if t in names and tokens[i + 1 : i + 2] != ["("]
    )
    return tokens, where


def _is_renaming(dropped, kept) -> bool:
    """True when some bijection of variable names, tried one by one, turns
    the ``dropped`` rule's text into the ``kept`` one's (both as given by
    :func:`_renamable`)."""
    (source, source_at), (target, target_at) = dropped, kept
    if len(source) != len(target) or source_at != target_at:
        return False
    if any(source[i] != target[i] for i in range(len(source)) if i not in source_at):
        return False
    names = sorted({source[i] for i in source_at})
    images = sorted({target[i] for i in target_at})
    return len(names) == len(images) and any(
        all(renaming[source[i]] == target[i] for i in source_at)
        for renaming in (dict(zip(names, image)) for image in itertools.permutations(images))
    )


def test_dropped_duplicates_are_renamings_of_kept_rules(monkeypatch):
    # An oracle that does not use the structural key: every rule duplicate
    # removal drops, on the program the optimizer hands it, turns into a
    # kept rule's text by a bijection of its variables.
    calls = []
    original = transform.remove_duplicate_rules

    def recording(program):
        kept = original(program)
        calls.append((program, kept))
        return kept

    monkeypatch.setattr(transform, "remove_duplicate_rules", recording)
    dropped = 0
    for name, program in corpus().items():
        calls.clear()
        optimize_program(program)
        ((before, after),) = calls
        kept = {id(rule) for rule in after.rules}
        texts = [_renamable(rule) for rule in after.rules]
        for rule in before.rules:
            if id(rule) not in kept:
                dropped += 1
                text = _renamable(rule)
                assert any(_is_renaming(text, k) for k in texts), (name, str(rule))
    assert dropped
