"""Bounded equivalence checking of optimizer rewritings.

:func:`check_equivalence` takes an :class:`EquivalenceTask` (original
program, rewritten program, query, shared EDB schema) and decides whether
some certain answer of the original is missing from the rewrite (or vice
versa) on *some* database within the bounds:

* ``backend="z3"`` — solve the symbolic encoding of
  :mod:`repro.verify.encode` with z3: SAT yields a concrete counterexample
  database (always re-confirmed by running the real chase on it before
  being reported), UNSAT proves equivalence up to the bounds;
* ``backend="exhaustive"`` — the same encoding, solved by exhaustive
  enumeration of the EDB selector assignments; used when z3 is not
  installed and the instance space is small (self-tests, tiny pools), with
  the same up-to-the-bounds guarantee;
* ``backend="enumerate"`` — no encoding at all: concrete differential
  sampling, running both programs on seeded random bounded databases; can
  only ever report a counterexample or "no counterexample found in N
  instances";
* ``backend="auto"`` — z3 if importable, else exhaustive if the selector
  space is small enough, else enumerate.

Counterexamples are *never* reported on the solver's word alone: every
model is decoded into a database and replayed through the real reasoner on
both programs; a model the chase disagrees with is discarded (and blocked,
on the z3 path) rather than surfaced.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.atoms import Atom, Fact
from ..core.parser import parse_atom, parse_program
from ..core.rules import Program
from ..core.transform import apply_transform
from ..core.wardedness import analyse_program
from ..engine.reasoner import VadalogReasoner, optimize_program
from ..storage.datasources import Pushdown
from .encode import Bounds, EncodingUnsupported, encode_task, py_eval

__all__ = [
    "EquivalenceTask",
    "EquivalenceReport",
    "Counterexample",
    "check_equivalence",
    "concrete_divergence",
    "magic_task",
    "slice_task",
    "pushdown_task",
]

#: Selector-count ceiling for the pure-Python exhaustive solver (2^limit
#: assignments are evaluated in the worst case).
EXHAUSTIVE_LIMIT = 12


@dataclass
class EquivalenceTask:
    """One original/rewritten program pair to compare over all bounded DBs."""

    name: str
    transform: str
    original: Program
    transformed: Program
    query: Atom
    #: Shared extensional schema: predicate → arity.
    edb: Dict[str, int]
    #: Extra ground facts the rewritten program needs in every database
    #: (magic seeds).
    seeds: Tuple[Fact, ...] = ()
    #: Per-source row filters of the rewritten side, as serialisable
    #: ``(position, op, value)`` triples (pushdown).
    edb_filters: Dict[str, Tuple[Tuple[int, str, object], ...]] = field(
        default_factory=dict
    )
    changed: bool = True
    detail: str = ""


@dataclass
class Counterexample:
    """A concrete database on which the two programs disagree."""

    database: Dict[str, List[Tuple[object, ...]]]
    #: One diverging certain answer (value tuple of the query predicate).
    witness: Optional[Tuple[object, ...]]
    #: Which side is missing the witness: ``"original"`` or ``"transformed"``.
    missing_in: str
    #: True when the divergence was replayed through the real chase.
    confirmed: bool = True


@dataclass
class EquivalenceReport:
    """Outcome of one equivalence check.

    ``verdict`` is ``"equivalent"`` (proved up to the bounds — z3 UNSAT or
    an exhausted exhaustive sweep), ``"counterexample"`` (confirmed concrete
    divergence in :attr:`counterexample`) or ``"no_counterexample"`` (the
    weaker claim: nothing found within the budget — always the strongest
    claim the ``enumerate`` backend can make).
    """

    task: str
    transform: str
    verdict: str
    backend: str
    bounds: Optional[Bounds] = None
    counterexample: Optional[Counterexample] = None
    checked: int = 0
    notes: str = ""
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"


# --------------------------------------------------------------------------
# Task construction
# --------------------------------------------------------------------------


def _pipeline_program(program: Union[Program, str]) -> Program:
    """The reasoner's pre-chase pipeline (harmful joins + normalise)."""
    if isinstance(program, str):
        program = parse_program(program)
    return optimize_program(program)[0]


def _edb_schema(program: Program) -> Dict[str, int]:
    schema: Dict[str, int] = {}
    edb = program.edb_predicates()
    for rule in program.rules:
        for atom in rule.relational_body:
            if atom.predicate in edb:
                schema.setdefault(atom.predicate, atom.arity)
    return schema


def _build_task(
    program: Union[Program, str],
    query: Union[Atom, str],
    transform: str,
    name: Optional[str],
) -> EquivalenceTask:
    if isinstance(query, str):
        query = parse_atom(query)
    normalized = _pipeline_program(program)
    schema = _edb_schema(normalized)
    application = apply_transform(
        normalized, query, transform, analyse_program(normalized)
    )
    return EquivalenceTask(
        name=name or f"{transform}:{query.predicate}",
        transform=transform,
        original=normalized,
        transformed=application.program,
        query=query,
        edb=schema,
        seeds=application.seeds,
        edb_filters=application.edb_filters,
        changed=application.changed,
        detail=application.detail,
    )


def magic_task(
    program: Union[Program, str],
    query: Union[Atom, str],
    unsound: bool = False,
    name: Optional[str] = None,
) -> EquivalenceTask:
    """Magic-set rewriting vs the unrewritten program.

    ``unsound=True`` builds the deliberately broken variant of
    :func:`repro.core.magic.unsound_variant` (self-test injection).
    """
    return _build_task(program, query, "magic-unsound" if unsound else "magic", name)


def slice_task(
    program: Union[Program, str],
    query: Union[Atom, str],
    name: Optional[str] = None,
) -> EquivalenceTask:
    """Backward-slice pruning vs the full program."""
    return _build_task(program, query, "slice", name)


def pushdown_task(
    program: Union[Program, str],
    query: Union[Atom, str],
    name: Optional[str] = None,
) -> EquivalenceTask:
    """Source-selection pushdown vs unfiltered sources."""
    return _build_task(program, query, "pushdown", name)


# --------------------------------------------------------------------------
# Concrete replay (the ground truth both symbolic backends defer to)
# --------------------------------------------------------------------------


class _TaskRunner:
    """Caches one reasoner per side; replays databases through the chase."""

    def __init__(self, task: EquivalenceTask) -> None:
        self.task = task
        self._original = VadalogReasoner(task.original.copy())
        self._transformed = VadalogReasoner(task.transformed.copy())

    def _side_answers(
        self, reasoner: VadalogReasoner, facts: List[Fact]
    ) -> Set[Tuple[object, ...]]:
        query = self.task.query
        result = reasoner.reason(database=facts, outputs=[query.predicate])
        answers: Set[Tuple[object, ...]] = set()
        for fact in result.answers.facts(query.predicate):
            if fact.has_nulls:
                continue
            if query.match(fact) is not None:
                answers.add(fact.values())
        return answers

    def divergence(
        self, database: Dict[str, Sequence[Tuple[object, ...]]]
    ) -> Optional[Counterexample]:
        task = self.task
        original_facts = [
            Fact(predicate, row)
            for predicate in sorted(database)
            for row in database[predicate]
        ]
        transformed_facts = []
        for predicate in sorted(database):
            rows = database[predicate]
            constraint_spec = task.edb_filters.get(predicate)
            if constraint_spec:
                pushdown = Pushdown(tuple(constraint_spec))
                rows = [row for row in rows if pushdown.matches(row)]
            transformed_facts.extend(Fact(predicate, row) for row in rows)
        transformed_facts.extend(task.seeds)
        left = self._side_answers(self._original, original_facts)
        right = self._side_answers(self._transformed, transformed_facts)
        if left == right:
            return None
        missing_in = "transformed" if left - right else "original"
        witness = sorted(left.symmetric_difference(right), key=repr)[0]
        return Counterexample(
            database={p: sorted(rows, key=repr) for p, rows in database.items()},
            witness=witness,
            missing_in=missing_in,
            confirmed=True,
        )


def concrete_divergence(
    task: EquivalenceTask, database: Dict[str, Sequence[Tuple[object, ...]]]
) -> Optional[Counterexample]:
    """Run both programs on one concrete database; the real-chase verdict."""
    return _TaskRunner(task).divergence(database)


# --------------------------------------------------------------------------
# Backends
# --------------------------------------------------------------------------


def _solve_exhaustive(
    task: EquivalenceTask, encoding, runner: _TaskRunner, max_models: int
) -> EquivalenceReport:
    names = encoding.selector_names()
    system = list(encoding.constraints) + [encoding.goal]
    checked = 0
    spurious = 0
    # Sweep by increasing database size so hits are small counterexamples.
    for count in range(len(names) + 1):
        for chosen in itertools.combinations(names, count):
            checked += 1
            assignment = dict.fromkeys(chosen, True)
            if not all(py_eval(node, assignment) for node in system):
                continue
            database = encoding.database_from_assignment(assignment)
            counterexample = runner.divergence(database)
            if counterexample is not None:
                return EquivalenceReport(
                    task=task.name,
                    transform=task.transform,
                    verdict="counterexample",
                    backend="exhaustive",
                    bounds=encoding.bounds,
                    counterexample=counterexample,
                    checked=checked,
                    stats=encoding.stats,
                )
            spurious += 1
            if spurious >= max_models:
                return EquivalenceReport(
                    task=task.name,
                    transform=task.transform,
                    verdict="no_counterexample",
                    backend="exhaustive",
                    bounds=encoding.bounds,
                    checked=checked,
                    notes=f"{spurious} symbolic models failed concrete confirmation",
                    stats=encoding.stats,
                )
    verdict = "no_counterexample" if (encoding.truncated or spurious) else "equivalent"
    notes = ""
    if encoding.truncated:
        notes = "null depth truncated; equivalence claim limited"
    elif spurious:
        notes = f"{spurious} symbolic models failed concrete confirmation"
    return EquivalenceReport(
        task=task.name,
        transform=task.transform,
        verdict=verdict,
        backend="exhaustive",
        bounds=encoding.bounds,
        checked=checked,
        notes=notes,
        stats=encoding.stats,
    )


def _solve_z3(
    task: EquivalenceTask,
    encoding,
    runner: _TaskRunner,
    max_models: int,
    timeout_ms: int,
) -> EquivalenceReport:  # pragma: no cover - requires z3-solver
    import z3

    from .encode import to_z3

    cache: dict = {}
    solver = z3.Solver()
    solver.set("timeout", timeout_ms)
    for constraint in encoding.constraints:
        solver.add(to_z3(constraint, z3, cache))
    solver.add(to_z3(encoding.goal, z3, cache))
    names = encoding.selector_names()
    z3_vars = {name: z3.Bool(name) for name in names}
    spurious = 0
    for _ in range(max_models):
        outcome = solver.check()
        if outcome == z3.unsat:
            verdict = (
                "no_counterexample" if (encoding.truncated or spurious) else "equivalent"
            )
            notes = ""
            if encoding.truncated:
                notes = "null depth truncated; equivalence claim limited"
            elif spurious:
                notes = f"{spurious} symbolic models failed concrete confirmation"
            return EquivalenceReport(
                task=task.name,
                transform=task.transform,
                verdict=verdict,
                backend="z3",
                bounds=encoding.bounds,
                checked=spurious + 1,
                notes=notes,
                stats=encoding.stats,
            )
        if outcome != z3.sat:
            return EquivalenceReport(
                task=task.name,
                transform=task.transform,
                verdict="no_counterexample",
                backend="z3",
                bounds=encoding.bounds,
                checked=spurious,
                notes=f"solver returned {outcome}",
                stats=encoding.stats,
            )
        model = solver.model()
        assignment = {
            name: bool(model.eval(z3_vars[name], model_completion=True))
            for name in names
        }
        database = encoding.database_from_assignment(assignment)
        counterexample = runner.divergence(database)
        if counterexample is not None:
            return EquivalenceReport(
                task=task.name,
                transform=task.transform,
                verdict="counterexample",
                backend="z3",
                bounds=encoding.bounds,
                counterexample=counterexample,
                checked=spurious + 1,
                stats=encoding.stats,
            )
        spurious += 1
        solver.add(
            z3.Or(
                *[
                    z3_vars[name] != z3.BoolVal(assignment[name])
                    for name in names
                ]
            )
        )
    return EquivalenceReport(
        task=task.name,
        transform=task.transform,
        verdict="no_counterexample",
        backend="z3",
        bounds=encoding.bounds,
        checked=spurious,
        notes=f"{spurious} symbolic models failed concrete confirmation",
        stats=encoding.stats,
    )


def _enumerate_databases(
    task: EquivalenceTask, bounds: Bounds, samples: int, seed: int
):
    """Seeded stream of small concrete databases over the task's pool."""
    from .encode import _pool_constants

    pool = [
        constant.value
        for constant in _pool_constants(
            (task.original, task.transformed), task.query, bounds.extra_constants
        )
    ]
    schema = sorted(task.edb.items())
    # Systematic phase: one fact total, swept across predicates and rows.
    emitted = 0
    for predicate, arity in schema:
        for row in itertools.product(pool, repeat=arity):
            if emitted >= samples:
                return
            emitted += 1
            yield {predicate: [row]}
    rng = random.Random(seed)
    while emitted < samples:
        emitted += 1
        database = {}
        for predicate, arity in schema:
            n_rows = rng.randint(0, bounds.k_facts)
            rows = {
                tuple(rng.choice(pool) for _ in range(arity)) for _ in range(n_rows)
            }
            if rows:
                database[predicate] = sorted(rows, key=repr)
        yield database


def _solve_enumerate(
    task: EquivalenceTask,
    bounds: Bounds,
    runner: _TaskRunner,
    samples: int,
    seed: int,
    notes: str = "",
) -> EquivalenceReport:
    checked = 0
    for database in _enumerate_databases(task, bounds, samples, seed):
        checked += 1
        counterexample = runner.divergence(database)
        if counterexample is not None:
            return EquivalenceReport(
                task=task.name,
                transform=task.transform,
                verdict="counterexample",
                backend="enumerate",
                bounds=bounds,
                counterexample=counterexample,
                checked=checked,
                notes=notes,
            )
    return EquivalenceReport(
        task=task.name,
        transform=task.transform,
        verdict="no_counterexample",
        backend="enumerate",
        bounds=bounds,
        checked=checked,
        notes=notes or f"no divergence in {checked} sampled databases",
    )


def _z3_available() -> bool:
    try:  # pragma: no cover - depends on the optional extra
        import z3  # noqa: F401

        return True
    except ImportError:
        return False


def check_equivalence(
    task: EquivalenceTask,
    bounds: Optional[Bounds] = None,
    backend: str = "auto",
    samples: int = 120,
    seed: int = 0,
    max_models: int = 5,
    timeout_ms: int = 60_000,
) -> EquivalenceReport:
    """Decide bounded equivalence of one task; see the module docstring."""
    bounds = bounds or Bounds()
    if backend not in ("auto", "z3", "exhaustive", "enumerate"):
        raise ValueError(f"unknown backend {backend!r}")
    if not task.changed and not task.seeds and not task.edb_filters:
        if task.transformed is task.original or (
            task.transformed.rules == task.original.rules
        ):
            return EquivalenceReport(
                task=task.name,
                transform=task.transform,
                verdict="equivalent",
                backend="static",
                bounds=bounds,
                notes="transform left the program unchanged",
            )
    runner = _TaskRunner(task)
    if backend == "enumerate":
        return _solve_enumerate(task, bounds, runner, samples, seed)
    try:
        encoding = encode_task(task, bounds)
    except EncodingUnsupported as exc:
        if backend in ("z3", "exhaustive"):
            raise
        return _solve_enumerate(
            task, bounds, runner, samples, seed, notes=f"encoding unsupported: {exc}"
        )
    if encoding.goal is False and not encoding.truncated:
        # No candidate answer can differ on any bounded database.
        return EquivalenceReport(
            task=task.name,
            transform=task.transform,
            verdict="equivalent",
            backend="static",
            bounds=bounds,
            notes="divergence goal simplified to false",
            stats=encoding.stats,
        )
    if backend == "z3" or (backend == "auto" and _z3_available()):
        return _solve_z3(  # pragma: no cover - requires z3-solver
            task, encoding, runner, max_models, timeout_ms
        )
    if len(encoding.selectors) <= EXHAUSTIVE_LIMIT:
        return _solve_exhaustive(task, encoding, runner, max_models)
    if backend == "exhaustive":
        raise EncodingUnsupported(
            f"{len(encoding.selectors)} selectors exceed the exhaustive limit "
            f"({EXHAUSTIVE_LIMIT}); install z3 or use enumerate"
        )
    return _solve_enumerate(
        task,
        bounds,
        runner,
        samples,
        seed,
        notes="selector space too large for exhaustive solving without z3",
    )
