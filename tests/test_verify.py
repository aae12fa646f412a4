"""Unit tests for the translation-validation subsystem (``repro.verify``).

Everything here runs without z3: the ``exhaustive`` backend sweeps all
selector assignments of small encodings (a genuine bounded-equivalence
verdict), and the ``enumerate`` backend samples concrete databases.  The
z3 path itself is covered by ``test_verify_z3.py`` (skipped unless the
optional extra is installed).
"""

import itertools

import pytest

from repro.core.magic import MagicRewriteError, rewrite_with_magic, unsound_variant
from repro.core.parser import parse_atom, parse_program
from repro.verify.encode import (
    Bounds,
    EncodingUnsupported,
    encode_task,
    f_and,
    f_at_most,
    f_not,
    f_or,
    f_var,
    f_xor,
    formula_size,
    py_eval,
)
from repro.verify.equiv import (
    check_equivalence,
    concrete_divergence,
    magic_task,
    pushdown_task,
    slice_task,
)
from repro.verify.minimize import minimise_divergence, repro_snippet
from repro.verify.oracle import (
    check_fuzz_case,
    magic_divergence_oracle,
    shrink_and_report,
    write_regression,
)

TC_PROGRAM = """\
P(X, Y) :- E(X, Y).
P(X, Z) :- E(X, Y), P(Y, Z).
@output("P").
"""

TC_QUERY = 'P("a", Z)'

SMALL_BOUNDS = Bounds(k_facts=2, extra_constants=1, rounds=4)


# --------------------------------------------------------------------------
# Formula trees
# --------------------------------------------------------------------------


class TestFormulas:
    def test_constant_folding(self):
        x = f_var("x")
        assert f_and([]) is True
        assert f_or([]) is False
        assert f_and([True, x]) == x
        assert f_or([False, x]) == x
        assert f_and([x, False]) is False
        assert f_or([x, True]) is True
        assert f_not(True) is False
        assert f_not(f_not(x)) == x
        assert f_xor(x, False) == x
        assert f_xor(x, True) == f_not(x)
        assert f_xor(x, x) is False  # identical object → statically false

    def test_py_eval(self):
        x, y = f_var("x"), f_var("y")
        node = f_or([f_and([x, f_not(y)]), f_xor(x, y)])
        assert py_eval(node, {"x": True, "y": False})
        assert py_eval(node, {"x": False, "y": True})
        assert not py_eval(node, {"x": True, "y": True})
        assert not py_eval(node, {})  # missing names default to False

    def test_at_most(self):
        vs = [f_var(f"s{i}") for i in range(4)]
        node = f_at_most(vs, 2)
        assert py_eval(node, {"s0": True, "s1": True})
        assert not py_eval(node, {"s0": True, "s1": True, "s2": True})
        assert f_at_most(vs[:2], 2) is True  # trivially satisfied

    def test_formula_size_shares_subtrees(self):
        x = f_var("x")
        shared = f_and([x, f_var("y")])
        node = f_or([shared, f_not(shared)])
        # shared subtree counted once: |, !, &, x, y
        assert formula_size(node) == 5


# --------------------------------------------------------------------------
# Encoder semantics
# --------------------------------------------------------------------------


class TestEncoder:
    def test_goal_matches_concrete_divergence(self):
        """The encoding's goal is *semantically exact* on the broken task.

        For every selector assignment that satisfies the constraints, the
        goal formula must be true iff the decoded database concretely
        diverges under the real chase.  This cross-checks grounding,
        unrolling and convergence in one sweep (16 assignments).
        """
        task = magic_task(TC_PROGRAM, TC_QUERY, unsound=True)
        encoding = encode_task(task, SMALL_BOUNDS)
        assert not encoding.truncated
        names = encoding.selector_names()
        assert len(names) == 4  # pool {a, _c0}^2 for E
        agreements = 0
        for bits in itertools.product([False, True], repeat=len(names)):
            assignment = dict(zip(names, bits))
            if not all(py_eval(c, assignment) for c in encoding.constraints):
                continue
            symbolic = py_eval(encoding.goal, assignment)
            database = encoding.database_from_assignment(assignment)
            concrete = concrete_divergence(task, database) is not None
            assert symbolic == concrete, (assignment, database)
            agreements += 1
        assert agreements >= 8  # the sweep actually exercised models

    def test_sound_magic_goal_never_fires(self):
        task = magic_task(TC_PROGRAM, TC_QUERY)
        encoding = encode_task(task, SMALL_BOUNDS)
        names = encoding.selector_names()
        for bits in itertools.product([False, True], repeat=len(names)):
            assignment = dict(zip(names, bits))
            if not all(py_eval(c, assignment) for c in encoding.constraints):
                continue
            assert not py_eval(encoding.goal, assignment)

    def test_unsupported_features_raise(self):
        aggregate = """\
Total(X, S) :- Sales(X, V), S = msum(V).
@output("Total").
"""
        task = magic_task(aggregate, "Total(X, S)")
        with pytest.raises(EncodingUnsupported):
            encode_task(task, SMALL_BOUNDS)

    def test_deep_null_chains_flag_truncation(self):
        chained = """\
X0(X, Z) :- E0(X).
X1(Y, W) :- X0(X, Y).
@output("X1").
"""
        task = magic_task(chained, "X1(A, B)")
        encoding = encode_task(task, Bounds(k_facts=2, extra_constants=1, rounds=3))
        assert encoding.truncated


# --------------------------------------------------------------------------
# Equivalence checking (exhaustive + enumerate backends)
# --------------------------------------------------------------------------


class TestCheckEquivalence:
    def test_sound_magic_equivalent_exhaustive(self):
        report = check_equivalence(
            magic_task(TC_PROGRAM, TC_QUERY), bounds=SMALL_BOUNDS, backend="exhaustive"
        )
        assert report.verdict == "equivalent"
        assert report.backend == "exhaustive"
        assert report.checked >= 16

    def test_unsound_magic_counterexample_exhaustive(self):
        report = check_equivalence(
            magic_task(TC_PROGRAM, TC_QUERY, unsound=True),
            bounds=SMALL_BOUNDS,
            backend="exhaustive",
        )
        assert report.verdict == "counterexample"
        ce = report.counterexample
        assert ce is not None and ce.confirmed
        assert ce.missing_in == "transformed"  # dropped demand rules under-derive
        # the decoded database really diverges under the real chase
        replay = concrete_divergence(
            magic_task(TC_PROGRAM, TC_QUERY, unsound=True), ce.database
        )
        assert replay is not None and replay.witness == ce.witness

    def test_unsound_magic_counterexample_enumerate(self):
        report = check_equivalence(
            magic_task(TC_PROGRAM, TC_QUERY, unsound=True),
            bounds=SMALL_BOUNDS,
            backend="enumerate",
            samples=80,
        )
        assert report.verdict == "counterexample"
        assert report.counterexample.confirmed

    def test_slice_task_equivalent(self):
        program = """\
P(X, Y) :- E(X, Y).
Q(X) :- P(X, Y).
R(X) :- F(X).
S(X) :- R(X).
@output("Q").
@output("S").
"""
        task = slice_task(program, 'Q("a")')
        assert task.changed
        report = check_equivalence(task, bounds=SMALL_BOUNDS, backend="auto")
        assert report.verdict in ("equivalent", "no_counterexample")
        assert not report.equivalent or report.backend in ("exhaustive", "static", "z3")

    def test_pushdown_task_statically_equivalent(self):
        program = """\
Big(X) :- Reading(X, V), V > 5.
@output("Big").
"""
        task = pushdown_task(program, "Big(X)")
        report = check_equivalence(task, bounds=SMALL_BOUNDS)
        # filtered rows can only feed rule bodies that re-check the same
        # condition: the divergence goal simplifies to False statically
        assert report.verdict == "equivalent"

    def test_unchanged_transform_short_circuits(self):
        program = """\
P(X) :- E(X).
@output("P").
"""
        task = slice_task(program, "P(X)")  # nothing to prune
        assert not task.changed
        report = check_equivalence(task)
        assert report.verdict == "equivalent"
        assert report.backend == "static"

    def test_existential_magic_equivalent(self):
        program = """\
Owns(X, Z) :- Company(X).
Holder(X) :- Owns(X, Z).
@output("Holder").
"""
        report = check_equivalence(
            magic_task(program, 'Holder("a")'),
            bounds=Bounds(k_facts=2, extra_constants=1, rounds=3),
            backend="auto",
        )
        assert report.verdict in ("equivalent", "no_counterexample")


# --------------------------------------------------------------------------
# unsound_variant (the self-test injection)
# --------------------------------------------------------------------------


class TestUnsoundVariant:
    def test_drops_demand_rules(self):
        program = parse_program(TC_PROGRAM)
        result = rewrite_with_magic(program, parse_atom(TC_QUERY))
        assert result.changed
        broken = unsound_variant(result)
        assert len(broken.program.rules) < len(result.program.rules)
        assert "UNSOUND" in broken.reason

    def test_drop_all_demand_rules(self):
        program = parse_program(TC_PROGRAM)
        result = rewrite_with_magic(program, parse_atom(TC_QUERY))
        broken = unsound_variant(result, drop=10_000)
        from repro.core.magic import is_magic_predicate

        assert not any(
            rule.head and is_magic_predicate(rule.head[0].predicate) and rule.body
            for rule in broken.program.rules
        )

    def test_requires_demand_rules(self):
        # An all-EDB body needs no demand propagation: the rewriting has
        # only a seed fact, so there is nothing to drop.
        program = parse_program('P(X) :- E(X).\n@output("P").')
        result = rewrite_with_magic(program, parse_atom('P("a")'))
        with pytest.raises(MagicRewriteError):
            unsound_variant(result)


# --------------------------------------------------------------------------
# Shrinking and regression generation
# --------------------------------------------------------------------------


def _broken_oracle():
    def diverges(program, database, query):
        task = magic_task(program, query, unsound=True)
        counterexample = concrete_divergence(task, database)
        return counterexample.witness if counterexample else None

    return diverges


class TestMinimise:
    #: A noisy starting point: extra rules/facts irrelevant to the failure.
    NOISY_PROGRAM = """\
P(X, Y) :- E(X, Y).
P(X, Z) :- E(X, Y), P(Y, Z).
Noise(X) :- F(X).
@output("P").
@output("Noise").
"""
    NOISY_DB = {
        "E": [("b", "a"), ("a", "b"), ("c", "c")],
        "F": [("a",), ("b",)],
    }

    def test_reduces_to_minimal_repro(self):
        query = parse_atom(TC_QUERY)
        program = parse_program(self.NOISY_PROGRAM)
        minimised = minimise_divergence(
            program, self.NOISY_DB, query, _broken_oracle()
        )
        (rules_before, facts_before), (rules_after, facts_after) = minimised.reduction
        assert rules_after < rules_before
        assert facts_after < facts_before
        assert rules_after <= 2  # the two transitive-closure rules
        # the minimised case still diverges
        assert _broken_oracle()(
            minimised.program, minimised.database, minimised.query
        )

    def test_rejects_non_diverging_input(self):
        query = parse_atom(TC_QUERY)
        program = parse_program(self.NOISY_PROGRAM)
        with pytest.raises(ValueError):
            minimise_divergence(
                program, self.NOISY_DB, query, lambda *a: None
            )

    def test_repro_snippet_names_seed_and_runs(self):
        query = parse_atom(TC_QUERY)
        snippet = repro_snippet(
            "fuzz case 7", 20267089, TC_PROGRAM, {"E": [("a", "b")]}, query
        )
        assert "seed 20267089" in snippet
        assert "rewrite=\"magic\"" in snippet
        namespace = {}
        exec(compile(snippet, "<repro>", "exec"), namespace)  # sound → passes

    def test_executor_snippet_compares_against_compiled(self):
        query = parse_atom("P(X, Y)")
        snippet = repro_snippet(
            "fuzz case 3",
            None,
            TC_PROGRAM,
            {"E": [("a", "b")]},
            query,
            transform="streaming",
        )
        assert 'executor="compiled"' in snippet
        assert "executor='streaming'" in snippet
        namespace = {}
        exec(compile(snippet, "<repro>", "exec"), namespace)


class TestRegressionWriter:
    def test_generated_test_pins_the_bug(self, tmp_path, monkeypatch):
        """End-to-end acceptance: injected unsound rewrite → counterexample →
        shrink → regression file that fails under the broken rewriting and
        passes under the real one."""
        report = check_equivalence(
            magic_task(TC_PROGRAM, TC_QUERY, unsound=True),
            bounds=SMALL_BOUNDS,
            backend="exhaustive",
        )
        assert report.verdict == "counterexample"

        minimised, snippet = shrink_and_report(
            "self-test",
            None,
            parse_program(TC_PROGRAM),
            report.counterexample.database,
            parse_atom(TC_QUERY),
            diverges=_broken_oracle(),
        )
        assert "VadalogReasoner" in snippet

        path = write_regression(
            tmp_path,
            "unsound_demo",
            "verify self-test",
            minimised.program_text,
            minimised.database,
            minimised.query,
        )
        assert path.name == "test_regression_unsound_demo.py"
        namespace = {}
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)

        # passes under the real pipeline…
        namespace["test_unsound_demo"]()

        # …and fails under the broken rewriting (patched into the reasoner)
        import repro.engine.reasoner as reasoner_module

        real = reasoner_module.rewrite_with_magic

        def broken(program, query, analysis=None):
            return unsound_variant(real(program, query, analysis))

        monkeypatch.setattr(reasoner_module, "rewrite_with_magic", broken)
        with pytest.raises(AssertionError):
            namespace["test_unsound_demo"]()


# --------------------------------------------------------------------------
# The fuzz-corpus oracle plumbing
# --------------------------------------------------------------------------


class TestOracle:
    def test_check_fuzz_case_outcome(self):
        outcome = check_fuzz_case(0, backend="auto", samples=30)
        assert outcome.index == 0
        assert outcome.seed >= 20260726
        if outcome.report is not None:
            assert outcome.report.verdict != "counterexample"
            assert "case 0" in outcome.summary()
        else:
            assert "skipped" in outcome.summary()

    def test_magic_divergence_oracle_agrees_with_pipeline(self):
        diverges = magic_divergence_oracle()
        program = parse_program(TC_PROGRAM)
        query = parse_atom(TC_QUERY)
        assert diverges(program, {"E": [("a", "b"), ("b", "c")]}, query) is None
