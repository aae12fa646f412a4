"""Magic-set rewriting: unit tests plus the executor × rewrite matrix.

The matrix extends the shared differential harness with the magic-rewrite
column: for each of the 16 registry scenarios a deterministic point query
is derived from the compiled reference answers, and
``reason(query=..., rewrite="magic")`` on the compiled and streaming
executors must return **identical certain answers** (and null
answer patterns) to the unrewritten ``rewrite="none"`` reference.  The
``parallel`` arm runs the compiled magic query on two threads at once, each
with its own reasoner, and holds every thread's answers to the same bar.  The
unit tests pin the rewriting's safety behaviour: existential fallback,
``Dom`` veto, constraint-driven full computation, adornment weakening to
unaffected positions, seed generation and the reasoner-level knobs.
"""

import pytest

from differential_harness import (
    answer_profile,
    assert_profiles_match,
    point_query,
    run_in_threads,
    scenario_names,
)
from repro.core.magic import (
    is_magic_predicate,
    magic_predicate_name,
    rewrite_with_magic,
)
from repro.core.parser import parse_atom, parse_program
from repro.core.transform import normalize_for_chase
from repro.core.wardedness import analyse_program
from repro.engine.reasoner import VadalogReasoner
from repro.workloads import (
    control_point_query_scenario,
    lubm_point_query_scenario,
    psc_point_query_scenario,
)

MAGIC_EXECUTORS = ("compiled", "streaming")

#: Point-query workloads; each scenario carries its bound query atom.
POINT_QUERY_WORKLOADS = {
    "control": lambda: control_point_query_scenario(30),
    "psc": lambda: psc_point_query_scenario(30, 20),
    "lubm-member": lambda: lubm_point_query_scenario(100, kind="member"),
    "lubm-takes": lambda: lubm_point_query_scenario(100, kind="takes"),
}

#: The matrix arms: each executor, plus ``parallel`` — the compiled executor
#: driven by two concurrent threads.
MAGIC_ARMS = (*MAGIC_EXECUTORS, "parallel")


# ---------------------------------------------------------------------------
# The executor × rewrite differential matrix
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def query_references():
    """Per-scenario: the point query and the unrewritten reference profile."""
    cache = {}

    def get(name):
        if name not in cache:
            full = answer_profile(name, "compiled")
            query = point_query(name, full)
            reference = answer_profile(name, "compiled", query=query, rewrite="none")
            cache[name] = (query, reference)
        return cache[name]

    return get


class TestMagicMatchesUnrewritten:
    @pytest.mark.parametrize("arm", MAGIC_ARMS)
    @pytest.mark.parametrize("name", scenario_names())
    def test_same_answers(self, name, arm, query_references):
        query, reference = query_references(name)
        if arm == "parallel":
            candidates = run_in_threads(
                lambda: answer_profile(
                    name, "compiled", query=query, rewrite="magic"
                )
            )
        else:
            candidates = [answer_profile(name, arm, query=query, rewrite="magic")]
        for thread, candidate in enumerate(candidates):
            # Certain answers must be identical and null answers
            # pattern-identical; the per-fact iso multiplicities may differ
            # when pruning removes redundant derivations of equivalent
            # witnesses.
            assert_profiles_match(
                name,
                reference,
                candidate,
                check_iso=False,
                label=f"{arm}/magic/thread {thread}",
            )


class TestMagicPrunes:
    """The rewriting must actually reduce work on point-query scenarios."""

    @pytest.mark.parametrize("name", ("psc", "lubm", "company-control"))
    def test_fewer_derived_facts(self, name, query_references):
        query, reference = query_references(name)
        candidate = answer_profile(name, "compiled", query=query, rewrite="magic")
        derived_full = len(reference.result.chase.derived_facts())
        derived_magic = len(candidate.result.chase.derived_facts())
        assert derived_magic < derived_full, (
            f"{name}: magic run derived {derived_magic} facts, "
            f"unrewritten {derived_full}"
        )
        assert candidate.result.magic_rewriting is not None
        assert candidate.result.magic_rewriting.changed

    @pytest.mark.parametrize("executor", MAGIC_EXECUTORS)
    @pytest.mark.parametrize("workload", sorted(POINT_QUERY_WORKLOADS))
    def test_point_query_workloads_derive_half(self, workload, executor):
        """Magic rewriting derives at least 2x fewer facts, same answers."""
        derived, answers = {}, {}
        for rewrite in ("none", "magic"):
            scenario = POINT_QUERY_WORKLOADS[workload]()
            result = VadalogReasoner(scenario.program.copy(), executor=executor).reason(
                database=scenario.database, query=scenario.query, rewrite=rewrite
            )
            derived[rewrite] = len(result.chase.derived_facts())
            answers[rewrite] = result.ground_tuples(scenario.query.split("(", 1)[0])
        assert answers["magic"] == answers["none"]
        assert derived["none"] >= 2 * max(1, derived["magic"]), derived


# ---------------------------------------------------------------------------
# Rewriting unit tests
# ---------------------------------------------------------------------------


def _normalized(text):
    program = normalize_for_chase(parse_program(text))
    return program


class TestRewriteStructure:
    def test_recursive_demand_rule(self):
        program = _normalized(
            """
            @output("PSC").
            PSC(X, P) :- KeyPerson(X, P), Person(P).
            PSC(X, P) :- Control(Y, X), PSC(Y, P).
            """
        )
        result = rewrite_with_magic(program, parse_atom('PSC("c1", P)'))
        assert result.changed
        assert result.guarded_rules == 2
        assert result.magic_rules == 1
        magic_name = magic_predicate_name("PSC", frozenset({0}), 2)
        assert is_magic_predicate(magic_name)
        demand = next(
            r
            for r in result.program.rules
            if r.head[0].predicate == magic_name and len(r.body) == 2
        )
        # The demand walks Control edges backwards from the queried company.
        assert demand.body[1].predicate == "Control"
        assert [f.predicate for f in result.seeds] == [magic_name]
        assert result.seeds[0].terms[0].value == "c1"

    def test_existential_rule_falls_back(self):
        program = _normalized(
            """
            @output("Owns").
            Owns(P, X) :- Company(X).
            Owns(P, X) :- Owns(P, Y), Sub(Y, X).
            """
        )
        result = rewrite_with_magic(program, parse_atom('Owns(P, "c1")'))
        # The first rule creates an existential owner: it must stay
        # unguarded, and position 0 of Owns (affected) must never be bound.
        for rule in result.program.rules:
            if rule.has_existentials():
                assert not any(
                    is_magic_predicate(a.predicate) for a in rule.body
                ), "existential rule must not carry a magic guard"
        for predicate, bound in result.adornments.items():
            analysis = analyse_program(program)
            for index in bound:
                from repro.core.atoms import Position

                assert Position(predicate, index) not in analysis.affected

    def test_dom_guard_vetoes_rewriting(self):
        program = parse_program(
            """
            @output("Out").
            Out(X, Y) :- In(X), Dom(Y).
            """
        )
        result = rewrite_with_magic(program, parse_atom('Out("a", Y)'))
        assert not result.changed
        assert "Dom" in result.reason

    def test_edb_query_predicate_declines(self):
        program = parse_program("Out(X) :- In(X).")
        result = rewrite_with_magic(program, parse_atom('In("a")'))
        assert not result.changed
        assert "extensional" in result.reason

    def test_constraint_predicates_computed_in_full(self):
        program = _normalized(
            """
            @output("T").
            T(X, Y) :- E(X, Y).
            T(X, Z) :- T(X, Y), E(Y, Z).
            Loop(X) :- T(X, X).
            :- Loop(X), Forbidden(X).
            """
        )
        result = rewrite_with_magic(program, parse_atom('T("a", Y)'))
        # T feeds the constraint through Loop, so neither may be guarded.
        assert result.adornments.get("T") is None
        assert result.adornments.get("Loop") is None
        for rule in result.program.rules:
            assert not any(is_magic_predicate(a.predicate) for a in rule.body)

    def test_irrelevant_rules_pruned(self):
        program = _normalized(
            """
            @output("A").
            @output("Other").
            A(X, Y) :- E(X, Y).
            Other(X) :- Unrelated(X).
            """
        )
        result = rewrite_with_magic(program, parse_atom('A("a", Y)'))
        assert result.changed
        assert result.pruned_rules == 1
        heads = {
            atom.predicate for rule in result.program.rules for atom in rule.head
        }
        assert "Other" not in heads

    def test_transform_entry_point(self):
        program = _normalized("@output(\"T\").\nT(X, Y) :- E(X, Y).")
        result = rewrite_with_magic(program, parse_atom('T("a", Y)'))
        assert result.changed
        assert result.guarded_rules == 1

    def test_rewritten_program_stays_warded(self):
        program = _normalized(
            """
            @output("PSC").
            PSC(X, P) :- KeyPerson(X, P), Person(P).
            PSC(X, P) :- Control(Y, X), PSC(Y, P).
            Employs(X, E) :- PSC(X, P).
            """
        )
        assert analyse_program(program).is_warded
        result = rewrite_with_magic(program, parse_atom('PSC("c1", P)'))
        assert result.changed
        assert analyse_program(result.program).is_warded


class TestReasonerKnobs:
    def test_rewrite_requires_query(self):
        reasoner = VadalogReasoner("A(X) :- B(X).")
        with pytest.raises(ValueError):
            reasoner.reason(database={"B": [("x",)]}, rewrite="magic")

    def test_unknown_rewrite_rejected(self):
        reasoner = VadalogReasoner("A(X) :- B(X).")
        with pytest.raises(ValueError):
            reasoner.reason(database={"B": [("x",)]}, query="A(X)", rewrite="sip")

    def test_query_filters_answers(self):
        reasoner = VadalogReasoner("@output(\"A\").\nA(X) :- B(X).")
        result = reasoner.reason(
            database={"B": [("x",), ("y",)]}, query='A("x")'
        )
        assert result.ground_tuples("A") == {("x",)}
        assert result.magic_rewriting is not None

    def test_query_atom_and_string_agree(self):
        from repro.core.atoms import Atom
        from repro.core.terms import Constant, Variable

        reasoner = VadalogReasoner("@output(\"A\").\nA(X, Y) :- B(X, Y).")
        database = {"B": [("x", 1), ("x", 2), ("y", 3)]}
        by_string = reasoner.reason(database=database, query='A("x", Y)')
        by_atom = reasoner.reason(
            database=database, query=Atom("A", (Constant("x"), Variable("Y")))
        )
        assert by_string.ground_tuples("A") == by_atom.ground_tuples("A") == {
            ("x", 1),
            ("x", 2),
        }

    def test_repeated_query_variable_filters_consistently(self):
        reasoner = VadalogReasoner("@output(\"A\").\nA(X, Y) :- B(X, Y).")
        result = reasoner.reason(
            database={"B": [("x", "x"), ("x", "y")]}, query="A(Z, Z)"
        )
        assert result.ground_tuples("A") == {("x", "x")}

    def test_magic_spec_is_cached(self):
        reasoner = VadalogReasoner("@output(\"A\").\nA(X) :- B(X).")
        reasoner.reason(database={"B": [("x",)]}, query='A("x")')
        spec = reasoner._magic_cache[("A", parse_atom('A("x")').terms)]
        reasoner.reason(database={"B": [("x",)]}, query='A("x")')
        assert reasoner._magic_cache[("A", parse_atom('A("x")').terms)] is spec

    def test_stream_first_answer_with_magic(self):
        reasoner = VadalogReasoner(
            """
            @output("T").
            T(X, Y) :- E(X, Y).
            T(X, Z) :- T(X, Y), E(Y, Z).
            """
        )
        database = {"E": [(f"n{i}", f"n{i + 1}") for i in range(20)]}
        lazy = reasoner.stream(database=database, query='T("n0", Y)')
        first = lazy.first_answer()
        assert first is not None
        assert first.predicate == "T"
        lazy.complete()
        assert lazy.ground_tuples("T") == {
            ("n0", f"n{i}") for i in range(1, 21)
        }

    def test_helper_reason_accepts_query(self):
        from repro.engine.reasoner import reason

        result = reason(
            "@output(\"A\").\nA(X) :- B(X).",
            database={"B": [("x",), ("y",)]},
            query='A("y")',
        )
        assert result.ground_tuples("A") == {("y",)}
