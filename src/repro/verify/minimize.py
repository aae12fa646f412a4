"""Deterministic shrinking of divergence witnesses.

When the concrete differential harness or the symbolic oracle finds a
program/database/query triple on which two pipelines disagree, the raw case
is usually noise: a dozen rules, twenty facts, most of them irrelevant.
:func:`minimise_divergence` greedily reduces the triple while preserving
the divergence — drop rules (last first), drop database facts, then narrow
the query by binding free positions to the diverging witness — using a
caller-supplied ``diverges`` callback as the oracle, so the same shrinker
serves executor differentials, magic-vs-plain differentials and symbolic
counterexamples alike.

Everything is deterministic: candidates are tried in a fixed order and the
first success is adopted (greedy, restart-on-change), so the same failure
always shrinks to the same minimal repro.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.parser import unparse_atom, unparse_program
from ..core.rules import Program
from ..core.terms import Constant, Variable

__all__ = ["MinimisationResult", "minimise_divergence", "repro_snippet"]

#: ``diverges(program, database, query)`` returns a witness (any truthy
#: value; ideally the diverging answer tuple) or ``None``/falsy.
DivergenceOracle = Callable[
    [Program, Dict[str, Sequence[Tuple[object, ...]]], Atom], Optional[object]
]


@dataclass
class MinimisationResult:
    """The shrunken failing triple plus bookkeeping."""

    program: Program
    database: Dict[str, List[Tuple[object, ...]]]
    query: Atom
    witness: object
    checks: int
    #: (rules, facts) before → after.
    reduction: Tuple[Tuple[int, int], Tuple[int, int]]

    @property
    def program_text(self) -> str:
        return unparse_program(self.program)

    @property
    def query_text(self) -> str:
        return unparse_atom(self.query)


def _db_size(database: Dict[str, Sequence]) -> int:
    return sum(len(rows) for rows in database.values())


def minimise_divergence(
    program: Program,
    database: Dict[str, Sequence[Tuple[object, ...]]],
    query: Atom,
    diverges: DivergenceOracle,
    max_checks: int = 400,
) -> MinimisationResult:
    """Greedily shrink a diverging (program, database, query) triple.

    The input triple must itself diverge — the first oracle call asserts it
    (a shrinker that silently "minimises" a passing case would hide the
    original failure).  Candidate reductions that make the oracle *raise*
    (e.g. a candidate program that loses wardedness) count as non-diverging
    and are skipped.
    """
    database = {p: list(rows) for p, rows in database.items() if rows}
    checks = [0]

    def attempt(candidate_program, candidate_db, candidate_query):
        if checks[0] >= max_checks:
            return None
        checks[0] += 1
        try:
            return diverges(candidate_program, candidate_db, candidate_query)
        except Exception:
            return None

    witness = attempt(program, database, query)
    if not witness:
        raise ValueError("minimise_divergence called on a non-diverging case")
    before = (len(program.rules), _db_size(database))

    # -- drop rules, last first, restarting after each success -------------
    changed = True
    while changed:
        changed = False
        for index in range(len(program.rules) - 1, -1, -1):
            candidate = program.copy()
            candidate.rules = [r for i, r in enumerate(program.rules) if i != index]
            found = attempt(candidate, database, query)
            if found:
                program, witness, changed = candidate, found, True
                break

    # -- drop facts --------------------------------------------------------
    changed = True
    while changed:
        changed = False
        for predicate in sorted(database):
            rows = database[predicate]
            for index in range(len(rows) - 1, -1, -1):
                candidate_db = {
                    p: (rows[:index] + rows[index + 1 :] if p == predicate else list(r))
                    for p, r in database.items()
                }
                candidate_db = {p: r for p, r in candidate_db.items() if r}
                found = attempt(program, candidate_db, query)
                if found:
                    database, witness, changed = candidate_db, found, True
                    break
            if changed:
                break

    # -- narrow the query: bind free positions to the witness --------------
    if (
        isinstance(witness, tuple)
        and len(witness) == query.arity
        and not any(isinstance(v, Variable) for v in witness)
    ):
        for position, term in enumerate(query.terms):
            if not isinstance(term, Variable):
                continue
            value = witness[position]
            if isinstance(value, (Constant,)):
                value = value.value
            if not isinstance(value, (str, int, float, bool)):
                continue  # labelled nulls cannot be bound in a query
            terms = list(query.terms)
            terms[position] = Constant(value)
            candidate_query = Atom(query.predicate, terms)
            found = attempt(program, database, candidate_query)
            if found:
                query, witness = candidate_query, found

    return MinimisationResult(
        program=program,
        database=database,
        query=query,
        witness=witness,
        checks=checks[0],
        reduction=(before, (len(program.rules), _db_size(database))),
    )


def repro_snippet(
    label: str,
    seed: Optional[int],
    program_text: str,
    database: Dict[str, Sequence[Tuple[object, ...]]],
    query: Atom,
    transform: str = "magic",
) -> str:
    """A copy-pasteable script reproducing one shrunk divergence.

    Printed by the fuzz harness on failure (naming the case seed, so the
    repro is traceable back to the corpus) and embedded in generated
    regression tests.  ``transform="magic"`` renders the magic-vs-plain
    comparison; an executor name (``"naive"``, ``"streaming"``) renders
    that executor against the compiled reference.
    """
    database_repr = "{\n" + "".join(
        f"    {predicate!r}: {sorted(rows, key=repr)!r},\n"
        for predicate, rows in sorted(database.items())
    ) + "}"
    query_text = unparse_atom(query)
    seed_line = f" (seed {seed})" if seed is not None else ""
    header = f"# repro for {label}{seed_line} — "
    prelude = f'''from repro.engine.reasoner import VadalogReasoner

PROGRAM = """\\
{program_text}
"""
DATABASE = {database_repr}
'''
    if transform == "magic":
        return f'''{header}magic vs unrewritten
{prelude}QUERY = {query_text!r}

reasoner = VadalogReasoner(PROGRAM)
plain = reasoner.reason(database=DATABASE, query=QUERY, rewrite="none")
magic = reasoner.reason(database=DATABASE, query=QUERY, rewrite="magic")
predicate = {query.predicate!r}
assert set(magic.ground_tuples(predicate)) == set(plain.ground_tuples(predicate)), (
    set(plain.ground_tuples(predicate)), set(magic.ground_tuples(predicate)))
'''
    return f'''{header}executor {transform} vs compiled
{prelude}
reference = VadalogReasoner(PROGRAM, executor="compiled").reason(database=DATABASE)
candidate = VadalogReasoner(PROGRAM, executor={transform!r}).reason(database=DATABASE)
predicate = {query.predicate!r}
assert set(candidate.ground_tuples(predicate)) == set(reference.ground_tuples(predicate)), (
    set(reference.ground_tuples(predicate)), set(candidate.ground_tuples(predicate)))
'''
