"""Randomised differential tests over generated warded programs.

The deterministic corpus lives in :mod:`repro.testing.fuzz` (shared with the
translation-validation oracle and the ``tools/check_equiv.py`` CLI); this
suite asserts over its ~100 random-family cases plus the 20 parametric
iWarded grid points (indices >= ``GRID_BASE`` — see ``fuzz.GRID_KNOBS``):

* **parse → unparse → parse round-trip** — ``unparse_program`` renders a
  program whose re-parse unparse-renders identically (a fixpoint), with the
  same rule/fact/output structure;
* **naive vs compiled** — the two identically-ordered chase executors
  derive the same store (ground facts exactly, null witnesses up to
  isomorphism);
* **streaming and parallel (2 workers) vs compiled** — answer-level
  agreement per output predicate: ground answers exactly, null answer
  patterns exactly, and for streaming (a cold run is the compiled round
  loop on the query slice) the iso *multiset* too.  Only the parallel
  executor is exempt from the last: its snapshot rounds enumerate duplicate
  joins in a different order than the sequential chase and may retain a
  different multiset of homomorphically equivalent witnesses (same
  exemption as ``differential_harness``'s
  ``PARALLEL_ORDER_SENSITIVE_NULLS``);
* **magic vs unrewritten** — for a generated point query,
  ``rewrite="magic"`` returns the same certain answers and null patterns
  as ``rewrite="none"``;
* **symbolic oracle** (slice) — the bounded equivalence checker of
  :mod:`repro.verify` finds no counterexample to the magic rewriting.

Any differential failure is shrunk by ``repro.verify.minimize`` and the
assertion message embeds a copy-pasteable repro snippet naming the case
seed, so a CI failure reproduces locally bit-for-bit.
"""

import pytest

from differential_harness import _profile_facts
from repro.core.atoms import Position
from repro.core.isomorphism import pattern_key
from repro.core.parser import parse_program, unparse_program
from repro.core.wardedness import analyse_program
from repro.engine.reasoner import VadalogReasoner
from repro.testing.fuzz import (
    CONSTANTS,
    MASTER_SEED,
    N_CASES,
    generate_case,
    grid_indices,
    point_query,
)
from repro.verify import oracle as verify_oracle

__all__ = ["MASTER_SEED", "N_CASES", "CONSTANTS"]

#: The executors compared against ``compiled`` on the answer level.
MATRIX_EXECUTORS = ("streaming", "parallel")

#: Executors whose answer profiles are compared at pattern level only (no
#: iso-multiset equality): their join enumeration order differs from the
#: sequential chase, so duplicate null witnesses may be retained in
#: different multiplicities.
ORDER_SENSITIVE_EXECUTORS = ("parallel",)


def _reasoner_kwargs(executor):
    return {"parallelism": 2} if executor == "parallel" else {}


def _run(program, database, executor):
    reasoner = VadalogReasoner(
        program.copy(), executor=executor, **_reasoner_kwargs(executor)
    )
    return reasoner.reason(database=database)


def _store_profile(program, database, executor):
    result = _run(program, database, executor)
    ground, iso, patterns = _profile_facts(result.chase.store)
    return ground, iso, patterns, result


def _answer_profile(result, predicates):
    """Per-output-predicate (ground, iso, patterns) over the *answers*."""
    profile = {}
    for predicate in sorted(predicates):
        profile[predicate] = _profile_facts(result.answers.facts(predicate))
    return profile


def _fail_with_repro(case, query, message, diverges, transform):
    """Shrink the diverging case and fail with an embedded repro snippet."""
    try:
        minimised, snippet = verify_oracle.shrink_and_report(
            f"fuzz case {case.index}",
            case.seed,
            case.program,
            case.database,
            query,
            diverges=diverges,
            transform=transform,
        )
    except Exception as error:  # shrinker must never mask the real failure
        pytest.fail(f"{message}\n(shrinker failed: {error!r})")
    before, after = minimised.reduction
    pytest.fail(
        f"{message}\n"
        f"shrunk {before[0]} rules/{before[1]} facts -> "
        f"{after[0]} rules/{after[1]} facts in {minimised.checks} checks; repro:\n"
        f"{snippet}"
    )


def _executor_diverges(executor, predicates):
    """Divergence oracle: ``executor`` vs compiled, answers per output."""

    def diverges(program, database, query):
        reference = _run(program, database, "compiled")
        candidate = _run(program, database, executor)
        check_iso = executor not in ORDER_SENSITIVE_EXECUTORS
        for predicate in sorted(predicates):
            ref_ground, ref_iso, ref_patterns = _profile_facts(
                reference.answers.facts(predicate)
            )
            cand_ground, cand_iso, cand_patterns = _profile_facts(
                candidate.answers.facts(predicate)
            )
            if ref_ground != cand_ground:
                diff = ref_ground.symmetric_difference(cand_ground)
                return sorted((f.values() for f in diff), key=repr)[0]
            if ref_patterns != cand_patterns:
                return ("<null-patterns>", predicate)
            if check_iso and ref_iso != cand_iso:
                return ("<null-multiset>", predicate)
        return None

    return diverges


@pytest.mark.parametrize("index", [*range(N_CASES), *grid_indices()])
def test_fuzz_case(index):
    case = generate_case(index)
    program, database = case.program, case.database

    # ---- parse → unparse → parse round-trip ------------------------------
    rendered = unparse_program(program)
    reparsed = parse_program(rendered)
    assert unparse_program(reparsed) == rendered, f"case {index}: unparse not stable"
    assert len(reparsed.rules) == len(program.rules)
    assert reparsed.outputs == program.outputs
    assert [f.terms for f in reparsed.facts] == [f.terms for f in program.facts]

    # ---- naive vs compiled over the full store ---------------------------
    ground_naive, iso_naive, _, _ = _store_profile(program, database, "naive")
    ground_compiled, iso_compiled, _, result = _store_profile(
        program, database, "compiled"
    )
    assert ground_compiled == ground_naive, f"case {index}: ground facts differ"
    assert iso_compiled == iso_naive, f"case {index}: null profiles differ"

    # ---- magic vs unrewritten on a generated point query -----------------
    query = point_query(case, result)
    if query is None:
        return  # nothing derivable to ask about; round-trip still covered
    reasoner = VadalogReasoner(program.copy())
    plain = reasoner.reason(database=database, query=query, rewrite="none")
    magic = reasoner.reason(database=database, query=query, rewrite="magic")
    predicate = query.predicate
    if magic.ground_tuples(predicate) != plain.ground_tuples(predicate):
        _fail_with_repro(
            case,
            query,
            f"case {index} (seed {case.seed}): certain answers differ under "
            f"magic for {query!r}",
            diverges=None,  # default magic-vs-plain oracle
            transform="magic",
        )
    plain_patterns = {
        pattern_key(f) for f in plain.answers.facts(predicate) if f.has_nulls
    }
    magic_patterns = {
        pattern_key(f) for f in magic.answers.facts(predicate) if f.has_nulls
    }
    if magic_patterns != plain_patterns:
        _fail_with_repro(
            case,
            query,
            f"case {index} (seed {case.seed}): null answer patterns differ "
            f"under magic for {query!r}",
            diverges=None,
            transform="magic",
        )
    if magic.magic_rewriting is not None and magic.magic_rewriting.changed:
        # Bound adornments must never touch affected (null-hosting) positions.
        affected = analyse_program(program).affected
        for pred, bound in magic.magic_rewriting.adornments.items():
            for position in bound:
                assert Position(pred, position) not in affected


@pytest.mark.parametrize("executor", MATRIX_EXECUTORS)
@pytest.mark.parametrize("index", [*range(0, N_CASES, 2), *grid_indices()[::2]])
def test_fuzz_executor_matrix(index, executor):
    """Streaming/parallel answers agree with compiled on every other case.

    Ground answers and null answer patterns must match exactly per output
    predicate, and the iso multiset too outside the order-sensitive
    executors.
    """
    case = generate_case(index)
    reference = _run(case.program, case.database, "compiled")
    candidate = _run(case.program, case.database, executor)
    ref_profile = _answer_profile(reference, case.idb)
    cand_profile = _answer_profile(candidate, case.idb)
    check_iso = executor not in ORDER_SENSITIVE_EXECUTORS
    for predicate in sorted(case.idb):
        ref_ground, ref_iso, ref_patterns = ref_profile[predicate]
        cand_ground, cand_iso, cand_patterns = cand_profile[predicate]
        if (
            ref_ground != cand_ground
            or ref_patterns != cand_patterns
            or (check_iso and ref_iso != cand_iso)
        ):
            from repro.core.atoms import Atom
            from repro.core.terms import Variable

            arity = case.idb[predicate]
            probe = Atom(predicate, [Variable(f"Q{i}") for i in range(arity)])
            _fail_with_repro(
                case,
                probe,
                f"case {index} (seed {case.seed}): executor {executor} "
                f"disagrees with compiled on {predicate}",
                diverges=_executor_diverges(executor, case.idb),
                transform=executor,
            )


@pytest.mark.parametrize("index", [*range(25), *grid_indices()])
def test_fuzz_symbolic_oracle(index):
    """The bounded translation-validation oracle finds no magic divergence.

    ``backend="auto"`` works without z3: small encodings are solved
    exhaustively, the rest fall back to concrete enumeration — either way a
    ``counterexample`` verdict means the rewriting is actually wrong (the
    decoded database is replayed through the real chase before reporting).
    """
    outcome = verify_oracle.check_fuzz_case(index, backend="auto", samples=40)
    if outcome.skipped:
        pytest.skip(f"case {index}: no derivable point query")
    report = outcome.report
    assert report.verdict != "counterexample", (
        f"case {index} (seed {outcome.seed}): magic rewriting diverges on "
        f"{report.counterexample.database!r} "
        f"(witness {report.counterexample.witness!r})"
    )
