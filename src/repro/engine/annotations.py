"""Annotation handling: ``@input``, ``@output``, ``@bind``, ``@post`` (Section 5).

Annotations are "@"-prefixed facts that inject behaviour:

* ``@input("P").`` / ``@output("P").`` mark predicates as pipeline sources
  and sinks (the parser already records them on the program);
* ``@bind("P", "kind", "location", ...).`` binds a predicate to an external
  datasource resolved through the registry of
  :mod:`repro.storage.datasources` — ``sqlite`` (with selection/projection
  pushdown), ``csv``, ``jsonl`` and named ``memory`` relations.  Binding an
  **extensional** predicate makes the source feed the pipeline through a
  lazy record manager; binding an ``@output`` predicate makes the answers
  get **written back** to the source after reasoning;
* ``@mapping("P", 0, "column").`` maps a predicate position to a backend
  column name (SQLite column selection/creation, JSONL object keys);
* ``@post("P", "certain").`` / ``@post("P", "sort", 0, 1).`` /
  ``@post("P", "limit", 10).`` register post-processing directives applied
  to the answers of an output predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.atoms import Fact
from ..core.query import AnswerSet
from ..core.rules import Annotation, Program
from ..storage.datasources import DataSource, DataSourceError, Pushdown, create_datasource
from .record_managers import DataSourceRecordManager, RecordManager


class AnnotationError(Exception):
    """Raised when an annotation is malformed or references unknown resources."""


@dataclass
class PostDirective:
    """A post-processing directive attached to an output predicate."""

    predicate: str
    operation: str
    arguments: Tuple[object, ...] = ()


@dataclass
class BindingSet:
    """The external bindings and post-processing directives of a program."""

    #: Input sources wrapped as lazy record managers, keyed by predicate.
    record_managers: Dict[str, RecordManager] = field(default_factory=dict)
    post_directives: List[PostDirective] = field(default_factory=list)
    mappings: Dict[str, Dict[int, str]] = field(default_factory=dict)
    #: The resolved input datasources (same keys as ``record_managers``).
    sources: Dict[str, DataSource] = field(default_factory=dict)
    #: Writeback targets: ``@bind`` on predicates the program derives and
    #: declares as ``@output`` — answers are written here after reasoning.
    output_sources: Dict[str, DataSource] = field(default_factory=dict)
    #: Per-predicate pushdowns compiled by the reasoner (diagnostics).
    pushdowns: Dict[str, Pushdown] = field(default_factory=dict)

    def source_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-predicate datasource counters (reads, pushdown, writeback)."""
        stats: Dict[str, Dict[str, object]] = {}
        for predicate, source in self.sources.items():
            row = {"kind": source.kind, "direction": "input"}
            row.update(source.stats.as_dict())
            pushdown = self.pushdowns.get(predicate)
            row["pushdown"] = pushdown.describe() if pushdown else None
            stats[predicate] = row
        for predicate, source in self.output_sources.items():
            row = {"kind": source.kind, "direction": "output"}
            row.update(source.stats.as_dict())
            row["pushdown"] = None
            stats[predicate] = row
        return stats


def _predicate_arities(program: Program) -> Dict[str, int]:
    """Arity of every predicate mentioned by the program (first use wins)."""
    arities: Dict[str, int] = {}
    for signature in program.predicates():
        arities.setdefault(signature.name, signature.arity)
    return arities


def collect_bindings(program: Program, base_path: Union[str, Path, None] = None) -> BindingSet:
    """Interpret the program's annotations into datasources and directives.

    ``@mapping`` annotations are gathered first so column mappings apply no
    matter where they appear relative to their ``@bind``; each ``@bind`` is
    then resolved through the datasource registry, validated against the
    predicate's arity in the program, and classified as an input source
    (extensional predicates — facts stream in) or a writeback target
    (derived ``@output`` predicates — answers stream out).
    """
    bindings = BindingSet()
    binds: List[Annotation] = []
    for annotation in program.annotations:
        if annotation.name in {"input", "output"}:
            continue
        if annotation.name in {"bind", "qbind"}:
            binds.append(annotation)
        elif annotation.name == "mapping":
            _record_mapping(annotation, bindings)
        elif annotation.name == "post":
            bindings.post_directives.append(_post_directive(annotation))
        # Unknown annotations are kept on the program but ignored here.

    arities = _predicate_arities(program)
    writeback = program.output_predicates() & program.idb_predicates()
    for annotation in binds:
        if len(annotation.arguments) < 3:
            raise AnnotationError(
                f"@{annotation.name} needs (predicate, source-kind, location), "
                f"got {annotation.arguments}"
            )
        predicate, kind, location = (
            str(annotation.arguments[0]),
            str(annotation.arguments[1]).lower(),
            annotation.arguments[2],
        )
        is_output = predicate in writeback
        columns = _mapped_columns(
            bindings.mappings.get(predicate), arities.get(predicate)
        )
        try:
            source = create_datasource(
                kind,
                predicate,
                location,
                tuple(annotation.arguments[3:]),
                base_path=base_path,
                arity=arities.get(predicate),
                columns=columns,
                create=is_output,
            )
        except DataSourceError as exc:
            raise AnnotationError(str(exc)) from exc
        if is_output:
            bindings.output_sources[predicate] = source
        else:
            bindings.sources[predicate] = source
            bindings.record_managers[predicate] = DataSourceRecordManager(
                predicate, source
            )
    return bindings


def _mapped_columns(
    mapping: Optional[Dict[int, str]], arity: Optional[int]
) -> Optional[List[str]]:
    """Materialise ``@mapping`` entries into a positional column-name list."""
    if not mapping:
        return None
    width = max(max(mapping) + 1, arity or 0)
    return [mapping.get(i, f"c{i}") for i in range(width)]


def _record_mapping(annotation: Annotation, bindings: BindingSet) -> None:
    if len(annotation.arguments) < 3:
        raise AnnotationError("@mapping needs (predicate, position, column-name)")
    predicate = str(annotation.arguments[0])
    try:
        position = int(annotation.arguments[1])  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise AnnotationError(
            f"@mapping position must be an integer, got {annotation.arguments[1]!r}"
        ) from exc
    column = str(annotation.arguments[2])
    bindings.mappings.setdefault(predicate, {})[position] = column


def _post_directive(annotation: Annotation) -> PostDirective:
    if len(annotation.arguments) < 2:
        raise AnnotationError("@post needs at least (predicate, operation)")
    predicate = str(annotation.arguments[0])
    operation = str(annotation.arguments[1]).lower()
    if operation not in {"certain", "sort", "limit"}:
        raise AnnotationError(f"unsupported @post operation {operation!r}")
    return PostDirective(predicate, operation, tuple(annotation.arguments[2:]))


def load_bound_facts(bindings: BindingSet) -> List[Fact]:
    """Materialise the facts of every bound external source.

    The materializing executors load through the same record managers the
    streaming driver reads from, so pushdowns (attached by the reasoner)
    apply identically on both paths.
    """
    facts: List[Fact] = []
    for manager in bindings.record_managers.values():
        try:
            facts.extend(manager.facts())
        except DataSourceError as exc:
            raise AnnotationError(str(exc)) from exc
    return facts


def write_output_bindings(
    bindings: BindingSet,
    answers: AnswerSet,
    requested_outputs: Optional[Sequence[str]] = None,
) -> Dict[str, int]:
    """Write each bound ``@output`` predicate's answers back to its source.

    Only null-free (certain) tuples are written — labelled nulls have no
    faithful external representation; skipped rows are counted in the
    source's ``rows_skipped_nulls`` statistic.  Each source is handed the
    rows as an iterator it consumes as it writes, so no list of them is
    built; both counts are of what it consumed.  When ``requested_outputs``
    is given (the run's ``reason(outputs=…)`` selection), bound predicates
    *outside* that selection are left untouched — the run never extracted
    their answers, so writing would wipe the external relation.  Returns
    rows written per predicate.
    """
    written: Dict[str, int] = {}
    for predicate, source in bindings.output_sources.items():
        if requested_outputs is not None and predicate not in requested_outputs:
            continue
        facts = answers.facts_by_predicate.get(predicate, [])
        try:
            written[predicate] = source.write_rows(_writeback_rows(facts, source.stats))
        except DataSourceError as exc:
            raise AnnotationError(str(exc)) from exc
    return written


def _writeback_rows(facts: Sequence[Fact], stats) -> Iterator[Tuple[object, ...]]:
    """The values of the null-free ``facts``, lazily; a fact holding a
    labelled null is counted in ``stats.rows_skipped_nulls`` as it is
    passed over."""
    for fact in facts:
        if fact.has_nulls:
            stats.rows_skipped_nulls += 1
        else:
            yield fact.values()


def _term_sort_key(term) -> Tuple[int, str, object]:
    """Type-aware ordering for ``@post("P", "sort", ...)``.

    Numbers sort numerically (``9 < 10``), then strings lexicographically,
    then other constants and labelled nulls by their text form — a total
    deterministic order over mixed-type columns.
    """
    from ..core.terms import Constant

    if isinstance(term, Constant):
        value = term.value
        if isinstance(value, bool):
            return (1, "", str(value))
        if isinstance(value, (int, float)):
            return (0, "", float(value))
        if isinstance(value, str):
            return (1, "", value)
        if isinstance(value, frozenset):
            # Canonical rendering: frozenset iteration order depends on the
            # process hash seed, str(value) would not be stable across runs.
            return (2, "frozenset", str(sorted(str(v) for v in value)))
        return (2, type(value).__name__, str(value))
    return (3, "", str(term))


def apply_post_directives(answers: AnswerSet, directives: Sequence[PostDirective]) -> AnswerSet:
    """Apply post-processing directives to an answer set (in place, returned).

    Called from the one answer step every run and every resident query
    ends in (:func:`repro.engine.reasoner._answer_step`).
    """
    for directive in directives:
        facts = answers.facts_by_predicate.get(directive.predicate)
        if facts is None:
            continue
        if directive.operation == "certain":
            facts = [f for f in facts if not f.has_nulls]
        elif directive.operation == "sort":
            positions = [int(a) for a in directive.arguments] or [0]
            facts = sorted(
                facts,
                key=lambda f: tuple(
                    _term_sort_key(f.terms[p]) for p in positions if p < f.arity
                ),
            )
        elif directive.operation == "limit":
            limit = int(directive.arguments[0]) if directive.arguments else len(facts)
            facts = facts[:limit]
        answers.facts_by_predicate[directive.predicate] = facts
    return answers
