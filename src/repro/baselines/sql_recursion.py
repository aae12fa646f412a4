"""Recursive-CTE-style Datalog evaluation (the RDBMS baseline).

The paper runs the PSC scenario as recursive SQL on PostgreSQL, MySQL and
Oracle and observes a roughly 6× slowdown against the Vadalog system
(Section 6.3), attributing it to the poor handling of recursion by RDBMSs.
This baseline mimics a ``WITH RECURSIVE`` evaluation:

* existential quantification is not supported (SQL cannot invent values);
* every iteration re-joins the *whole* accumulated relations with the rule
  bodies (no semi-naive delta restriction) and de-duplicates the result with
  a full set comparison, which is how a naive recursive CTE behaves;
* no dynamic indexes: joins scan the accumulated relations.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.atoms import Atom, Fact
from ..core.rules import Program
from ..core.terms import Constant, Variable
from .restricted_chase import BaselineResult, ChaseLimitError


class UnsupportedSqlFeature(Exception):
    """Raised for programs outside the recursive-SQL fragment (existentials, aggregation)."""


class RecursiveSqlEngine:
    """Naive recursive-CTE evaluation of a Datalog program."""

    def __init__(self, program: Program, max_rounds: int = 10000) -> None:
        for rule in program.rules:
            if rule.existential_variables():
                raise UnsupportedSqlFeature(
                    f"rule {rule.label}: recursive SQL cannot invent existential values"
                )
            if rule.aggregate is not None:
                raise UnsupportedSqlFeature(
                    f"rule {rule.label}: monotonic aggregation inside recursion is not "
                    "expressible in a recursive CTE"
                )
        self.program = program
        self.max_rounds = max_rounds

    def run(self, database: Iterable[Fact] = ()) -> BaselineResult:
        started = time.perf_counter()
        relations: Dict[str, Set[Tuple[object, ...]]] = {}
        for fact in list(database) + list(self.program.facts):
            relations.setdefault(fact.predicate, set()).add(fact.values())

        rounds = 0
        applied = 0
        changed = True
        while changed:
            rounds += 1
            if rounds > self.max_rounds:
                raise ChaseLimitError(f"recursive SQL evaluation exceeded {self.max_rounds} rounds")
            changed = False
            for rule in self.program.rules:
                produced = self._evaluate_rule(rule, relations)
                for predicate, rows in produced.items():
                    existing = relations.setdefault(predicate, set())
                    before = len(existing)
                    existing |= rows
                    added = len(existing) - before
                    if added:
                        changed = True
                        applied += added

        from ..core.fact_store import FactStore

        store = FactStore()
        for predicate, rows in relations.items():
            for row in rows:
                store.add(Fact(predicate, [Constant(v) for v in row]))
        result = BaselineResult(store=store, rounds=rounds, applied_steps=applied)
        result.elapsed_seconds = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------ helpers
    def _evaluate_rule(
        self, rule, relations: Dict[str, Set[Tuple[object, ...]]]
    ) -> Dict[str, Set[Tuple[object, ...]]]:
        """One full (non-incremental) evaluation of a rule body as a CTE would."""
        body = rule.relational_body
        bindings: List[Dict[Variable, object]] = [{}]
        for atom in body:
            rows = relations.get(atom.predicate, set())
            next_bindings: List[Dict[Variable, object]] = []
            for binding in bindings:
                for row in rows:
                    merged = self._match_row(atom, row, binding)
                    if merged is not None:
                        next_bindings.append(merged)
            bindings = next_bindings
            if not bindings:
                return {}
        produced: Dict[str, Set[Tuple[object, ...]]] = {}
        for binding in bindings:
            term_binding = {v: Constant(value) for v, value in binding.items()}
            if not all(c.holds(term_binding) for c in rule.conditions):
                continue
            full = dict(term_binding)
            ok = True
            for assignment in rule.assignments:
                try:
                    full[assignment.variable] = assignment.compute(full)
                except Exception:  # noqa: BLE001 - treated as a failed WHERE clause
                    ok = False
                    break
            if not ok:
                continue
            for head_atom in rule.head:
                row = []
                for term in head_atom.terms:
                    if isinstance(term, Variable):
                        value = full[term]
                        row.append(value.value if isinstance(value, Constant) else value)
                    elif isinstance(term, Constant):
                        row.append(term.value)
                    else:  # pragma: no cover - excluded by the constructor checks
                        raise UnsupportedSqlFeature("nulls cannot appear in SQL heads")
                produced.setdefault(head_atom.predicate, set()).add(tuple(row))
        return produced

    @staticmethod
    def _match_row(
        atom: Atom, row: Tuple[object, ...], binding: Dict[Variable, object]
    ) -> Optional[Dict[Variable, object]]:
        if len(row) != atom.arity:
            return None
        merged = dict(binding)
        for term, value in zip(atom.terms, row):
            if isinstance(term, Variable):
                bound = merged.get(term)
                if bound is None:
                    merged[term] = value
                elif bound != value:
                    return None
            elif isinstance(term, Constant):
                if term.value != value:
                    return None
            else:
                return None
        return merged
