"""Shared differential-testing machinery for the executor test matrix.

Every executor suite (``test_compiled_executor``,
``test_streaming_differential``) and the magic-rewrite matrix
(``test_magic_rewrite``) compares runs over the same **20 scenario
registry** defined here, with the same three levels of agreement:

* **ground-exact** — null-free facts/answers must be exactly equal (this is
  the certain-answer semantics the warded strategy preserves regardless of
  derivation order);
* **null patterns** — null-carrying facts must produce the same set of
  patterns (constants in place, labelled nulls as anonymous witnesses);
* **iso profile** — the full multiset of per-fact isomorphism keys
  (including multiplicities) must match too, on every scenario: naive and
  a cold streaming run both derive in the compiled order.

No executor is exempt from the third level.  A run whose derivation order
differs from the compiled one may keep a different *multiset* of
homomorphically equivalent null witnesses, because the termination check
keeps whichever witness it meets first: a streaming run completed after
partial pulls (batches change that order), which
``test_streaming_differential`` compares at the first two levels, and a
magic-rewritten or incrementally maintained materialisation.
"""

import sys
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, List, TypeVar
from typing import Counter as CounterType
from typing import Dict, Optional, Set, Tuple

from repro.core.atoms import Atom, Fact
from repro.core.isomorphism import isomorphism_key, pattern_key
from repro.core.terms import Constant, Variable
from repro.engine.reasoner import ReasoningResult, VadalogReasoner
from repro.workloads import (
    allpsc_scenario,
    arity_scenario,
    atom_count_scenario,
    control_scenario,
    dbsize_scenario,
    doctors_fd_scenario,
    doctors_scenario,
    er_fusion_scenario,
    ibench_scenario,
    iwarded_scenario,
    label_propagation_scenario,
    lubm_scenario,
    parametric_scenario,
    psc_scenario,
    rule_count_scenario,
    strong_links_scenario,
)

#: The 20 scenario factories shared by every executor differential.
SCENARIOS = {
    "iwarded-synthA": lambda: iwarded_scenario("synthA", facts_per_predicate=4),
    "iwarded-synthB": lambda: iwarded_scenario("synthB", facts_per_predicate=4),
    "iwarded-synthG": lambda: iwarded_scenario("synthG", facts_per_predicate=4),
    "psc": lambda: psc_scenario(n_companies=25, n_persons=20),
    "allpsc": lambda: allpsc_scenario(n_companies=20, n_persons=15),
    "strong-links": lambda: strong_links_scenario(
        n_companies=20, n_persons=20, threshold=2
    ),
    "company-control": lambda: control_scenario(n_companies=40),
    "ibench-stb": lambda: ibench_scenario("STB-128", source_facts=4),
    "ibench-ont": lambda: ibench_scenario("ONT-256", source_facts=3),
    "doctors": lambda: doctors_scenario(60),
    "doctors-fd": lambda: doctors_fd_scenario(60),
    "lubm": lambda: lubm_scenario(120),
    "scaling-dbsize": lambda: dbsize_scenario(8),
    "scaling-rules": lambda: rule_count_scenario(2, facts_per_predicate=5),
    "scaling-atoms": lambda: atom_count_scenario(4, facts_per_predicate=5),
    "scaling-arity": lambda: arity_scenario(5, facts_per_predicate=5),
    # Scenario lab (PR 10): parametric iWarded grid points + the two
    # reasoning-meets-ML workloads (aggregates + EGDs together).
    "iwarded-parametric": lambda: parametric_scenario(facts_per_predicate=4),
    "iwarded-parametric-deep": lambda: parametric_scenario(
        recursion_depth=4,
        existential_density=0.25,
        arity=3,
        join_fanin=3,
        facts_per_predicate=3,
    ),
    "ds-er-fusion": lambda: er_fusion_scenario(),
    "ds-label-prop": lambda: label_propagation_scenario(),
}

def scenario_names():
    """Deterministic iteration order for ``pytest.mark.parametrize``."""
    return sorted(SCENARIOS)


@dataclass
class AnswerProfile:
    """Per-predicate summary of one run's answers (ground/iso/patterns)."""

    ground: Dict[str, Set[Tuple]]
    iso: Dict[str, CounterType]
    patterns: Dict[str, Set]
    result: ReasoningResult


def _profile_facts(facts) -> Tuple[Set[Fact], CounterType, Set]:
    ground: Set[Fact] = set()
    iso: CounterType = Counter()
    patterns: Set = set()
    for fact in facts:
        if fact.has_nulls:
            iso[isomorphism_key(fact)] += 1
            patterns.add(pattern_key(fact))
        else:
            ground.add(fact)
    return ground, iso, patterns


def answer_profile(
    name: str,
    executor: str,
    query: Optional[Atom] = None,
    rewrite: Optional[str] = None,
    lazy_steps: Optional[int] = None,
    **reasoner_kwargs,
) -> AnswerProfile:
    """Run one scenario on one executor and profile its *answers*.

    With ``query``/``rewrite`` the run goes through
    ``reason(query=..., rewrite=...)`` and the profile covers the query
    predicate only; otherwise the scenario's declared outputs.  With
    ``lazy_steps`` the run is driven lazily instead — ``stream()``,
    ``first_answer()``, that many ``iter_answers()`` steps, ``complete()``
    — so the input reaches the chase in several batches; after every pull
    the store and the node map must still agree fact for fact, as they
    must after a ``reason()``.
    """
    scenario = SCENARIOS[name]()
    reasoner = VadalogReasoner(
        scenario.program.copy(), executor=executor, **reasoner_kwargs
    )
    run = reasoner.reason if lazy_steps is None else reasoner.stream
    result = run(
        database=scenario.database,
        outputs=None if query is not None else scenario.outputs,
        query=query,
        rewrite=rewrite,
    )
    if lazy_steps is not None:
        result.first_answer()
        assert_one_node_per_fact(result.chase)
        for _fact in islice(result.iter_answers(), lazy_steps):
            assert_one_node_per_fact(result.chase)
        result.complete()
    assert_one_node_per_fact(result.chase)
    predicates = (query.predicate,) if query is not None else scenario.outputs
    ground, iso, patterns = {}, {}, {}
    for predicate in predicates:
        g, i, p = _profile_facts(result.answers.facts(predicate))
        ground[predicate] = g
        iso[predicate] = i
        patterns[predicate] = p
    return AnswerProfile(ground=ground, iso=iso, patterns=patterns, result=result)


def store_profile(name: str, executor: str, **reasoner_kwargs):
    """Run one scenario and summarise the whole materialised store.

    Returns ``(ground facts, iso-key multiset, pattern-key set)`` over the
    null-carrying facts — equality of ground+iso means the two runs derived
    the same facts up to a bijective renaming of labelled nulls per fact.
    Used by the compiled-vs-naive differential (identically-ordered
    executors must agree fact-for-fact).
    """
    scenario = SCENARIOS[name]()
    reasoner = VadalogReasoner(
        scenario.program.copy(), executor=executor, **reasoner_kwargs
    )
    result = reasoner.reason(database=scenario.database, outputs=scenario.outputs)
    ground, iso, patterns = _profile_facts(result.chase.store)
    return ground, iso, patterns


T = TypeVar("T")


def run_in_threads(work: Callable[[], T], threads: int = 2) -> List[T]:
    """Call ``work`` on ``threads`` threads at once and return each result.

    The threads start together behind a barrier and the interpreter's
    switch interval is shortened for the duration, so the runs interleave
    at fine grain instead of one finishing inside its first time slice.
    The first exception raised by any thread is re-raised here.
    """
    barrier = threading.Barrier(threads)
    results: List = [None] * threads
    errors: List[BaseException] = []

    def target(slot: int) -> None:
        barrier.wait()
        try:
            results[slot] = work()
        except BaseException as error:  # surfaced in the calling thread
            errors.append(error)

    workers = [threading.Thread(target=target, args=(k,)) for k in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise errors[0]
    return results


def point_query(name: str, reference: AnswerProfile) -> Atom:
    """A deterministic bound query atom for one scenario.

    Picks the scenario's first output predicate and binds its first
    scalar-valued position to the smallest ground answer value, leaving the
    other positions free — every scenario thus gets a *point-query* shape
    for the magic-rewrite column of the matrix.  Scenarios without ground
    answers (or without bindable positions) get the all-free atom, which
    still exercises the rewrite path (relevance pruning + fallback).
    """
    scenario = SCENARIOS[name]()
    predicate = scenario.outputs[0]
    sample = None
    tuples = sorted(
        (t for t in reference.ground.get(predicate, ())),
        key=lambda fact: repr(fact),
    )
    arity = None
    bound_position = None
    for fact in tuples:
        arity = fact.arity
        for position, term in enumerate(fact.terms):
            if isinstance(term, Constant) and isinstance(term.value, (str, int)):
                sample = term
                bound_position = position
                break
        if sample is not None:
            break
    if arity is None:
        # No ground answers: derive the arity from any answer fact, else
        # from the program's head atoms.
        facts = reference.result.answers.facts(predicate)
        if facts:
            arity = facts[0].arity
        else:
            arity = next(
                atom.arity
                for rule in scenario.program.rules
                for atom in rule.head
                if atom.predicate == predicate
            )
    terms = [
        sample if position == bound_position else Variable(f"Q{position}")
        for position in range(arity)
    ]
    return Atom(predicate, terms)


def assert_one_node_per_fact(chase) -> None:
    """Every stored fact that carries a chase node — its predicate is in
    ``chase.node_reach``, or every fact when that is ``None`` — has exactly
    one; every node's fact is stored and carries one."""
    reach = chase.node_reach
    carried = [f for f in chase.store.facts() if reach is None or f.predicate in reach]
    assert Counter(node.fact for node in chase.nodes) == Counter(carried)


def assert_profiles_match(
    name: str,
    reference: AnswerProfile,
    candidate: AnswerProfile,
    check_iso: bool = True,
    check_patterns: bool = True,
    label: str = "",
) -> None:
    """Assert the three agreement levels between two answer profiles."""
    suffix = f" [{label}]" if label else ""
    assert candidate.ground == reference.ground, (
        f"{name}{suffix}: ground answers differ"
    )
    if check_patterns:
        assert candidate.patterns == reference.patterns, (
            f"{name}{suffix}: null answer patterns differ"
        )
    if check_iso:
        assert candidate.iso == reference.iso, (
            f"{name}{suffix}: null isomorphism profiles differ"
        )


