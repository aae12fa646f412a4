"""Plain-Python reference answers — nothing here imports the system under test."""

from __future__ import annotations

import hashlib
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


def digest(tuples: Iterable[Sequence[object]]) -> Dict[str, object]:
    """Order-independent fingerprint of a set of tuples: size and sha256."""
    lines = sorted(repr(tuple(row)) for row in set(map(tuple, tuples)))
    return {
        "n": len(lines),
        "sha256": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
    }


def combined(answers: Dict[str, Dict[str, object]], kind: str) -> str:
    """One sha256 over every predicate's ``kind`` fingerprint (what gets pinned)."""
    text = repr(sorted((p, a[kind]["n"], a[kind]["sha256"]) for p, a in answers.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def company_control(own_rows: Iterable[Sequence[object]]) -> Set[Tuple[str, str]]:
    """Company control (Example 2 of the paper) as a per-company fixpoint.

    ``x`` controls ``z`` when it owns more than half of ``z`` directly, or
    when the companies it controls together own more than half of ``z``.
    Each controlled company contributes its stake once (``msum`` keyed by
    the contributor ``<Y>``), which the worklist guarantees by expanding
    every company exactly once.
    """
    stakes: Dict[str, List[Tuple[str, float]]] = {}
    for owner, owned, share in own_rows:
        stakes.setdefault(owner, []).append((owned, share))
    control: Set[Tuple[str, str]] = set()
    for company, direct in stakes.items():
        controlled = {owned for owned, share in direct if share > 0.5}
        work = list(controlled)
        accumulated: Dict[str, float] = {}
        while work:
            for owned, share in stakes.get(work.pop(), ()):
                total = accumulated[owned] = accumulated.get(owned, 0.0) + share
                if total > 0.5 and owned not in controlled:
                    controlled.add(owned)
                    work.append(owned)
        control.update((company, owned) for owned in controlled)
    return control


class ReachOracle:
    """The edge set of the service graph as it evolves, answered by BFS."""

    def __init__(self, edges: Iterable[Sequence[str]], sources: Iterable[str]) -> None:
        self._successors: Dict[str, Set[str]] = {}
        self._sources = sorted(sources)
        self._closure: Optional[Set[Tuple[str, str]]] = None  # until the next write
        for edge in edges:
            self.upsert(edge)

    def upsert(self, edge: Sequence[str]) -> None:
        self._successors.setdefault(edge[0], set()).add(edge[1])
        self._closure = None

    def retract(self, edge: Sequence[str]) -> None:
        self._successors.get(edge[0], set()).discard(edge[1])
        self._closure = None

    def reach_from(self, start: str) -> Set[str]:
        """Nodes reachable from ``start`` over one or more edges."""
        seen: Set[str] = set()
        work = [start]
        while work:
            for successor in self._successors.get(work.pop(), ()):
                if successor not in seen:
                    seen.add(successor)
                    work.append(successor)
        return seen

    def reach_all(self) -> Set[Tuple[str, str]]:
        if self._closure is None:
            self._closure = {
                (a, b) for a in list(self._successors) for b in self.reach_from(a)
            }
        return self._closure

    def audited(self) -> Set[str]:
        """First column of ``Audit``: everything reachable from a source."""
        return {node for source in self._sources for node in self.reach_from(source)}


_ATOM = re.compile(r"(\w+)\(([^()]*)\)")


def _parse_rule(line: str):
    """``H(X, P) :- B(X, Y), C(Y, Z).`` with variables only — the iWarded shape."""
    head_text, _, body_text = line.rstrip(". ").partition(":-")
    atoms = [
        (name, tuple(term.strip() for term in terms.split(",")))
        for name, terms in _ATOM.findall(head_text + " :- " + body_text)
    ]
    leftover = _ATOM.sub("", head_text + body_text).replace(",", "").strip()
    if leftover or len(atoms) < 2 or not all(t.isidentifier() for _, ts in atoms for t in ts):
        raise ValueError(f"not a plain existential rule: {line!r}")
    return atoms[0], atoms[1:]


def skolem_chase(
    program_text: str, rows: Dict[str, Iterable[Sequence[object]]], limit: int = 2_000_000
) -> Dict[str, Set[tuple]]:
    """All facts of the Skolem chase of a plain existential-rule program.

    An existential head variable becomes a Skolem term over the rule and its
    frontier values, so the result is a universal model and its null-free
    facts are exactly the certain answers — the same ground answers every
    correct chase variant (warded, restricted, streaming) must produce.
    Terminates on the iWarded programs because their existential rules read
    only extensional predicates; ``limit`` turns anything else into an error.
    """
    rules = [
        _parse_rule(line)
        for line in program_text.splitlines()
        if line.strip() and not line.lstrip().startswith(("@", "%"))
    ]
    facts: Dict[str, Set[tuple]] = {p: set(map(tuple, table)) for p, table in rows.items()}
    delta = {p: set(table) for p, table in facts.items()}
    while any(delta.values()):
        indexes: Dict[Tuple[str, Tuple[int, ...]], Dict[tuple, List[tuple]]] = {}

        def probe(predicate: str, positions: Tuple[int, ...], key: tuple) -> List[tuple]:
            index = indexes.get((predicate, positions))
            if index is None:
                index = indexes[(predicate, positions)] = {}
                for row in facts.get(predicate, ()):
                    index.setdefault(tuple(row[i] for i in positions), []).append(row)
            return index.get(key, [])

        def extend(binding: Dict[str, object], atoms) -> Iterable[Dict[str, object]]:
            if not atoms:
                yield binding
                return
            (predicate, terms), rest = atoms[0], atoms[1:]
            bound = tuple(i for i, t in enumerate(terms) if t in binding)
            for row in probe(predicate, bound, tuple(binding[terms[i]] for i in bound)):
                grown = dict(binding)
                if all(grown.setdefault(t, v) == v for t, v in zip(terms, row)):
                    yield from extend(grown, rest)

        derived: Dict[str, Set[tuple]] = {}
        for number, ((head, head_terms), body) in enumerate(rules):
            body_variables = {t for _, terms in body for t in terms}
            frontier = sorted(set(head_terms) & body_variables)
            for seed, (predicate, terms) in enumerate(body):
                others = body[:seed] + body[seed + 1:]
                for row in delta.get(predicate, ()):
                    start: Dict[str, object] = {}
                    if not all(start.setdefault(t, v) == v for t, v in zip(terms, row)):
                        continue
                    for binding in extend(start, others):
                        skolem = tuple(binding[v] for v in frontier)
                        fact = tuple(
                            binding[t] if t in binding else (number, t, skolem)
                            for t in head_terms
                        )
                        if fact not in facts.get(head, ()):
                            derived.setdefault(head, set()).add(fact)
        for predicate, new in derived.items():
            facts.setdefault(predicate, set()).update(new)
        if sum(map(len, facts.values())) > limit:
            raise RuntimeError(f"Skolem chase exceeded {limit} facts")
        delta = derived
    return facts


def ground(facts: Iterable[tuple]) -> Set[tuple]:
    """The facts without Skolem terms (which are the only tuple-valued terms)."""
    return {row for row in facts if not any(isinstance(v, tuple) for v in row)}
